(** PAST-style multipath routing: one destination-oriented spanning
    tree per (host, alternate) pair, addressed by shadow MAC.

    This is the routing layer of the paper's TE application (§6.2):
    alternate route [a] to host [d] is reached by addressing frames to
    [Mac.shadow (Mac.host d) ~alt:a]; the destination's edge switch
    rewrites shadow MACs back to the base MAC so the host accepts the
    frame. The trees are a function of the topology, not tables:
    {!install} gives every simulated switch the topology's lookup, one
    closure over the destination MAC. *)

type t

val create :
  Fabric.t ->
  alts:int ->
  out_port:(alts:int -> switch:int -> Planck_packet.Mac.t -> int) ->
  t
(** Routes to every host over alternates [0 .. alts-1] ([alt 0] = base
    route). [out_port ~alts ~switch] ({!Fat_tree.out_port},
    {!Single_switch.out_port}, {!Jellyfish.routes}) is [switch]'s
    lookup: the egress port of [mac_for ~dst ~alt] on the tree of
    ([dst], [alt]) for a host [dst] and [alt < alts], and [-1] off that
    tree or for any other MAC ({!dst_of} decodes it). It is applied to
    [~alts] once and to [~switch] once per switch, here. Raises
    [Invalid_argument] if [alts < 1]. *)

val dst_of : hosts:int -> alts:int -> Planck_packet.Mac.t -> int
(** [dst_of ~hosts ~alts mac] is [dst] if [mac] is
    [Mac.shadow (Mac.host dst) ~alt] with [dst < hosts] and
    [alt < alts], else [-1]. *)

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
