(** Data-rate arithmetic.

    Rates are carried as bits per second in a float; helpers convert
    between rates, byte counts and {!Time.t} durations without scattering
    unit conversions through the simulator. *)

type t = float
(** Bits per second. *)

val bps : float -> t
val mbps : float -> t
val gbps : float -> t

val to_gbps : t -> float

val tx_time : t -> bytes_:int -> Time.t
(** [tx_time rate ~bytes_] is the serialization delay of [bytes_] bytes
    at [rate], rounded up to a whole nanosecond (so a positive-size frame
    never transmits in zero time). Raises [Invalid_argument] on
    non-positive rate. *)

val bytes_in : t -> Time.t -> int
(** [bytes_in rate d] is how many whole bytes [rate] carries in
    duration [d]. *)

val of_bytes_per : int -> Time.t -> t
(** [of_bytes_per n d] is the average rate that moves [n] bytes in
    duration [d]. Raises [Invalid_argument] if [d <= 0]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print with an automatically chosen unit, e.g. ["9.41Gbps"]. *)
