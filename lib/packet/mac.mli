(** 48-bit Ethernet MAC addresses.

    Planck's traffic-engineering application provisions several "shadow"
    MAC addresses per host, one per pre-installed alternate route
    (paper §6.2); {!shadow} derives them deterministically from the base
    address. *)

type t
(** Immutable MAC address. Total ordering and equality are structural. *)

val of_int : int -> t
(** [of_int n] keeps the low 48 bits of [n]. *)

val to_int : t -> int

val of_string : string -> t
(** Parse ["aa:bb:cc:dd:ee:ff"]. Raises [Invalid_argument] on malformed
    input. *)

val to_string : t -> string

val broadcast : t
(** ff:ff:ff:ff:ff:ff *)

val host : int -> t
(** [host i] is the canonical (base) MAC address of host number [i] in
    the testbed: locally administered, unicast. *)

val shadow : t -> alt:int -> t
(** [shadow base ~alt] is the shadow MAC for alternate route [alt]
    (1-based) of the host whose base MAC is [base]. [shadow base ~alt:0]
    is [base] itself. Raises [Invalid_argument] for negative [alt]. *)

val base_of_shadow : t -> t * int
(** Inverse of {!shadow}: recover the base address and the alternate
    route index from any (possibly shadow) host MAC. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
