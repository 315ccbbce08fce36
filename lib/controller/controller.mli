(** The base Planck SDN controller (paper §3.3, §4.1).

    Construction performs the controller's Planck-specific setup: it
    spins up one collector per monitored switch, installs the mirroring
    configuration, and shares the routing state with every collector
    (the input/output-port inference of §4.2 depends on it). It then
    exports the two controller capabilities applications use:

    - low-latency statistics queries, answered by forwarding to the
      collectors (a drop-in replacement for OpenFlow counter polling);
    - event subscription, via {!Te.create} or directly on the
      collectors.

    Routes in this reproduction are pre-installed and static (PAST +
    shadow MACs), so the route-update broadcast to collectors is a
    no-op after setup; the paper's quiescence rule ("refrain from using
    new routes until collectors know them") is satisfied trivially. *)

type t

val create :
  Planck_netsim.Engine.t ->
  routing:Planck_topology.Routing.t ->
  link_rate:Planck_util.Rate.t ->
  ?channel_config:Planck_openflow.Control_channel.config ->
  ?collector_config:Planck_collector.Collector.config ->
  prng:Planck_util.Prng.t ->
  unit ->
  t
(** Attach a collector to every switch with a reserved monitor port. *)

val collectors : t -> Planck_collector.Collector.t list
val collector_for : t -> switch:int -> Planck_collector.Collector.t option

(** {2 Fast-path statistics queries (forwarded to collectors)} *)

val link_utilization : t -> switch:int -> port:int -> Planck_util.Rate.t

val flow_rate :
  t -> Planck_packet.Flow_key.t -> Planck_util.Rate.t option
(** First collector that knows the flow answers. *)

val start_te : t -> ?config:Te.config -> unit -> Te.t
(** Launch the traffic-engineering application on this controller. *)
