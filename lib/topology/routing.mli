(** PAST-style multipath routing: one destination-oriented spanning
    tree per (host, alternate) pair, addressed by shadow MAC.

    This is the routing layer of the paper's TE application (§6.2):
    alternate route [a] to host [d] is reached by addressing frames to
    [Mac.shadow (Mac.host d) ~alt:a]; the destination's edge switch
    rewrites shadow MACs back to the base MAC so the host accepts the
    frame. The trees are a function of the topology, not tables:
    {!install} gives every simulated switch a lookup that decodes the
    destination MAC and asks that function. *)

type t

val create :
  Fabric.t ->
  alts:int ->
  out_port:(switch:int -> dst:int -> alt:int -> int) ->
  t
(** Routes to every host over alternates [0 .. alts-1] ([alt 0] = base
    route). [out_port ~switch ~dst ~alt] ({!Fat_tree.out_port},
    {!Single_switch.out_port}, {!Jellyfish.routes}) is [switch]'s port on
    the tree of ([dst], [alt]), [-1] off it; it is applied to [~switch]
    once per switch, here. Raises [Invalid_argument] if [alts < 1]. *)

val fabric : t -> Fabric.t
val alts : t -> int

val install : t -> unit
(** Give every switch its lookup ({!Planck_netsim.Switch.set_routes}),
    which misses on any MAC that is not {!routable}, and add the
    shadow→base rewrites at each destination's edge switch. *)

val routable : t -> Planck_packet.Mac.t -> bool
(** [mac] is [mac_for t ~dst ~alt] for some host [dst] and [alt]. *)

val mac_for : t -> dst:int -> alt:int -> Planck_packet.Mac.t

type hop = { switch : int; in_port : int; out_port : int }

val path : t -> src:int -> dst_mac:Planck_packet.Mac.t -> hop list
(** Switch-level path a frame from host [src] addressed to [dst_mac]
    takes. Raises [Invalid_argument] for unknown MACs or if the walk
    leaves the tree (a routing bug). *)

val links_of_path : hop list -> (int * int) list
(** The (switch, egress port) links of a path — the congestible
    resources. *)
