(** Simulated time, measured in integer nanoseconds.

    The whole simulator runs on integer nanoseconds so that event ordering
    is exact and runs are reproducible. On a 64-bit platform this gives
    roughly 292 years of simulated time, far beyond any experiment here. *)

type t = int
(** A point in simulated time (or a duration), in nanoseconds. *)

val zero : t

val microsecond : t
val second : t

val ns : int -> t
(** [ns n] is a duration of [n] nanoseconds. *)

val us : int -> t
(** [us n] is a duration of [n] microseconds. *)

val ms : int -> t
(** [ms n] is a duration of [n] milliseconds. *)

val s : int -> t
(** [s n] is a duration of [n] seconds. *)

val of_float_s : float -> t
(** [of_float_s x] converts [x] seconds to nanoseconds, rounding to
    nearest. *)

val to_float_s : t -> float
(** [to_float_s t] is [t] expressed in seconds. *)

val to_float_ms : t -> float
(** [to_float_ms t] is [t] expressed in milliseconds. *)

val to_float_us : t -> float
(** [to_float_us t] is [t] expressed in microseconds. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print with an automatically chosen unit, e.g. ["3.50ms"]. *)

val to_string : t -> string
