(** Transport-flow identity: the classic 5-tuple.

    The collector's flow table (paper §3.2.2) and the controller's
    traffic-engineering state are both keyed by this. *)

type t = {
  src_ip : Ipv4_addr.t;
  dst_ip : Ipv4_addr.t;
  src_port : int;
  dst_port : int;
  protocol : int;
}

val of_packet : Packet.t -> t option
(** The 5-tuple of a TCP or UDP frame; [None] for ARP. *)

val reverse : t -> t
(** Key of the opposite direction (ACK stream) of the same connection. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val hash_packet : Packet.t -> int
(** [hash k] for [of_packet p = Some k], computed without building the
    key; [0] for ARP frames. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** The same rendering as {!pp} ("src:port > dst:port/proto"), built
    without the formatting machinery so per-packet-reachable journal
    sites can label flows allocation-rule-clean. *)

module Table : sig
  include Hashtbl.S with type key = t

  val iter_sorted : (key -> 'a -> unit) -> 'a t -> unit
  val fold_sorted : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

module Map : Map.S with type key = t
