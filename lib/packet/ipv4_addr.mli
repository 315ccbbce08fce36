(** IPv4 addresses. *)

type t
(** Immutable IPv4 address. *)

val of_int : int -> t
(** Keeps the low 32 bits. *)

val to_int : t -> int

val of_string : string -> t
(** Parse dotted-quad notation. Raises [Invalid_argument] on malformed
    input. *)

val to_string : t -> string

val host : int -> t
(** [host i] is the testbed address of host [i]: [10.0.(i lsr 8).(i land
    0xff)]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val host_id : t -> int option
(** Inverse of {!host}: the host index if this is a testbed address
    (10.0.0.0/16), else [None]. *)
