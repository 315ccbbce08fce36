(** The Planck-driven traffic-engineering application (paper §6.2,
    Algorithm 1).

    Subscribes to collector congestion events. For every notification
    it refreshes its network view with the annotated flows, expires
    stale entries, and greedily re-routes each flow in the notification
    onto the pre-installed alternate path with the largest expected
    bottleneck capacity ([find_path_btlneck], borrowed from DevoFlow).
    Rerouting is a single message — a spoofed ARP or an OpenFlow
    rewrite rule ({!Reroute}).

    The whole decision is O(alternates × flows) per notification, which
    is what lets the control loop close in ~3 ms. *)

type config = {
  congestion_threshold : float;
      (** fraction of link capacity at which collectors raise events *)
  flow_timeout : Planck_util.Time.t;  (** 3 ms in the paper *)
  reroute_cooldown : Planck_util.Time.t;
      (** per-flow quiet period while a reroute takes effect *)
  mechanism : Reroute.mechanism;
}

val default_config : config
(** threshold 0.5, timeout 3 ms, cooldown 3 ms, ARP mechanism. *)

type t

val create :
  Planck_netsim.Engine.t ->
  routing:Planck_topology.Routing.t ->
  channel:Planck_openflow.Control_channel.t ->
  collectors:Planck_collector.Collector.t list ->
  link_rate:Planck_util.Rate.t ->
  ?config:config ->
  unit ->
  t
(** Wires the congestion subscriptions. Notifications travel
    collector → controller over the control channel (paying its
    latency) before being processed. *)

val notifications : t -> int
val reroutes : t -> int

val on_reroute :
  t ->
  (Planck_util.Time.t ->
  Planck_packet.Flow_key.t ->
  old_mac:Planck_packet.Mac.t ->
  new_mac:Planck_packet.Mac.t ->
  unit) ->
  unit
(** Observe reroute decisions (fired when the reroute message is
    sent). *)
