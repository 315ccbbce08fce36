(** PAST-style multipath routing state: one destination-oriented
    spanning tree per (host, alternate) pair, addressed by shadow MAC.

    This is the routing layer of the paper's TE application (§6.2):
    alternate route [a] to host [d] is reached by addressing frames to
    [Mac.shadow (Mac.host d) ~alt:a]; the destination's edge switch
    rewrites shadow MACs back to the base MAC so the host accepts the
    frame. {!install} programs every simulated switch accordingly. *)

type tree = {
  dst_host : int;
  alt : int;
  mac : Planck_packet.Mac.t;
  out_ports : int array;  (** per switch; -1 = switch not on this tree *)
}

type t

val create :
  Fabric.t ->
  alts:int ->
  tree_fn:(dst:int -> alt:int -> int array) ->
  t
(** Compute trees for every host and alternates [0 .. alts-1]
    ([alt 0] = base route). Raises [Invalid_argument] if [alts < 1]. *)

val fabric : t -> Fabric.t
val alts : t -> int

val install : t -> unit
(** Program all switch FDBs, plus shadow→base rewrite rules at each
    destination's edge switch. *)

val mac_for : t -> dst:int -> alt:int -> Planck_packet.Mac.t
val tree : t -> Planck_packet.Mac.t -> tree option

type hop = { switch : int; in_port : int; out_port : int }

val path : t -> src:int -> dst_mac:Planck_packet.Mac.t -> hop list
(** Switch-level path a frame from host [src] addressed to [dst_mac]
    takes. Raises [Invalid_argument] for unknown MACs or if the walk
    leaves the tree (a routing bug). *)

val links_of_path : hop list -> (int * int) list
(** The (switch, egress port) links of a path — the congestible
    resources. *)
