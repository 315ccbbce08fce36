(** The controller application's view of the network (the [net] of
    Algorithm 1): the flows it has heard about, their last estimated
    rates, and the route (shadow MAC) each is currently using.

    Flow entries expire after a timeout so that routing decisions never
    use stale rates (paper §6.2, "Reacting to Congestion"). Link loads
    are derived on demand by walking each live flow's current path. *)

type flow = {
  key : Planck_packet.Flow_key.t;
  mutable rate : Planck_util.Rate.t;
  mutable dst_mac : Planck_packet.Mac.t;  (** current route *)
  mutable last_heard : Planck_util.Time.t;
  mutable no_reroute_until : Planck_util.Time.t;
      (** cooldown while a reroute is in flight *)
  mutable commanded : bool;
      (** the controller has assigned this flow's route itself; samples
          (which lag by the mirror-port buffering) no longer override
          [dst_mac] *)
}

type t

val create : Planck_topology.Routing.t -> flow_timeout:Planck_util.Time.t -> t

val observe :
  t ->
  now:Planck_util.Time.t ->
  key:Planck_packet.Flow_key.t ->
  rate:Planck_util.Rate.t ->
  dst_mac:Planck_packet.Mac.t ->
  flow
(** Record (or refresh) a flow heard in a congestion notification. *)

val expire : t -> now:Planck_util.Time.t -> unit
(** Drop entries not heard within the flow timeout
    ([remove_old_flows]). *)

val size : t -> int

val path_links : t -> flow -> (int * int) list
(** (switch, egress port) links of the flow's current route. *)

val bottleneck :
  t ->
  capacity:Planck_util.Rate.t ->
  exclude:flow ->
  links:(int * int) list ->
  Planck_util.Rate.t
(** [find_path_btlneck]: the minimum, over [links], of capacity minus
    the load from every live flow other than [exclude] whose current
    path crosses the link. *)

val set_route : t -> flow -> Planck_packet.Mac.t -> unit
