(** The Planck collector (paper §3.2, §4.2).

    One collector per monitored switch. It consumes the mirrored frame
    stream from the switch's monitor port through a netmap-style
    {!Planck_netsim.Sink}, reads each delivered frame's headers in
    place (flow key, payload length, sequence number, flags), and
    maintains:

    - a flow table with per-flow throughput estimates
      ({!Rate_estimator});
    - input/output-port inference from the routing state the controller
      shares (routes are keyed by destination MAC, so the output port
      follows from the destination MAC alone and the input port from the
      source–destination pair — §4.2);
    - per-link utilization (the sum of the rates of flows crossing the
      link);
    - threshold-crossing congestion events annotated with the flows on
      the congested link (§3.3);
    - on request ({!capture}), a vantage-point ring of recent samples,
      dumpable as pcap (§6.1); a collector nobody asked to capture
      keeps no frames.

    Queries ([link_utilization], [flows_on_port], [flow_rate]) answer
    from current state in microseconds of simulated time — this is the
    statistics fast path that replaces OpenFlow counter polling. *)

type sample = {
  rx : Planck_util.Time.t;  (** when the collector processed the frame *)
  arrival : Planck_util.Time.t;  (** when it arrived at the NIC *)
  packet : Planck_packet.Packet.t;
  key : Planck_packet.Flow_key.t option;
  payload : int;
  seq32 : int option;
  in_port : int;
  out_port : int;
}

type flow_event_kind = Flow_started | Flow_ended

type flow_event = {
  time : Planck_util.Time.t;
  flow : Planck_packet.Flow_key.t;
  kind : flow_event_kind;
}

type congestion = {
  time : Planck_util.Time.t;
  switch : int;
  port : int;
  utilization : Planck_util.Rate.t;
  capacity : Planck_util.Rate.t;
  flows :
    (Planck_packet.Flow_key.t * Planck_util.Rate.t * Planck_packet.Mac.t) list;
      (** annotation: flows on the link with their estimated rates and
          routing MACs *)
  corr : int;
      (** correlation id minted at detection; every downstream
          {!Planck_telemetry.Journal} event of this control loop
          (notify, decide, install, effective) carries it *)
}

(** The flow-state backend the sample path writes through (§3.2.2, and
    the bounded-state extension). [b_table] is the exact tier every
    query answers from. [b_sample] admits one data sample: it returns
    the entry to account the sample to, or [None] when the backend
    keeps the flow in approximate state only (a sketch tier that has
    not promoted it). [b_tick] runs before each sample for housekeeping
    (decay clocks, demotion sweeps) and must be cheap when idle. *)
type table_backend = {
  b_table : Flow_table.t;
  b_sample :
    key:Planck_packet.Flow_key.t ->
    now:Planck_util.Time.t ->
    bytes:int ->
    max_rate:Planck_util.Rate.t ->
    dst_mac:Planck_packet.Mac.t ->
    Flow_table.entry option;
  b_tick : now:Planck_util.Time.t -> unit;
}

(** How the collector keeps per-flow state. [Exact] is the paper's
    one-entry-per-sampled-5-tuple table. [Custom_backend] receives the
    monitored switch id, the configured flow timeout and the journal of
    the collector's engine, and builds the backend — a factory because
    one config is shared across every monitored switch
    ({!Planck_controller} creates many collectors from a single config)
    and each needs its own state. *)
type table_kind =
  | Exact
  | Custom_backend of
      (switch:int -> flow_timeout:Planck_util.Time.t ->
       journal:Planck_telemetry.Journal.t -> table_backend)

type config = {
  min_gap : Planck_util.Time.t;  (** burst separator, 200 µs *)
  max_burst : Planck_util.Time.t;  (** forced estimate period, 700 µs *)
  flow_timeout : Planck_util.Time.t;
  event_cooldown : Planck_util.Time.t;
      (** minimum spacing of events per link *)
  ring_capacity : int;  (** sink ring slots; must be positive *)
  poll_interval : Planck_util.Time.t;  (** netmap batch timer *)
  table : table_kind;  (** flow-state backend; default [Exact] *)
}

val default_config : config

type t

val create :
  Planck_netsim.Engine.t ->
  switch:int ->
  routing:Planck_topology.Routing.t ->
  link_rate:Planck_util.Rate.t ->
  ?config:config ->
  unit ->
  t

val attach : t -> unit
(** Cable this collector to its switch's reserved monitor port and turn
    on mirroring of all data ports (via {!Planck_topology.Fabric}).
    Raises [Invalid_argument] if [config.ring_capacity <= 0]. *)

val switch_id : t -> int

(** {2 Queries} *)

val flow_rate :
  t -> Planck_packet.Flow_key.t -> Planck_util.Rate.t option

val link_utilization : t -> port:int -> Planck_util.Rate.t
(** Sum of current rate estimates of live flows leaving [port]. *)

val flows_on_port :
  t ->
  port:int ->
  (Planck_packet.Flow_key.t * Planck_util.Rate.t * Planck_packet.Mac.t) list

val samples_seen : t -> int
val data_samples : t -> int
val flows_tracked : t -> int

val sink : t -> Planck_netsim.Sink.t option
(** The capture endpoint {!attach} cabled to the monitor port; its
    counters account for every frame the port delivered. *)

(** {2 Subscriptions} *)

val subscribe_congestion :
  t -> threshold:float -> (congestion -> unit) -> unit
(** [threshold] is a fraction of link capacity; the callback fires when
    a link's utilization estimate crosses it, rate-limited by
    [event_cooldown] per link. *)

val subscribe_flow_events : t -> (flow_event -> unit) -> unit
(** Flow lifecycle events: a sampled SYN raises [Flow_started], a FIN
    or RST raises [Flow_ended]. With the switch's preferential
    sampling enabled (§9.2) these bypass the sample backlog. *)

val flow_sampling_fraction :
  t -> Planck_packet.Flow_key.t -> float option
(** Effective sampling rate of a flow's vantage trace: sampled payload
    bytes over the sequence span covered. 1.0 means a complete capture
    (undersubscribed monitor port); under oversubscription it reports
    how much of the flow the trace holds — the completeness signal the
    paper's §6.1 asks for. *)

val flow_retransmission_fraction :
  t -> Planck_packet.Flow_key.t -> float option
(** Fraction of this flow's data samples whose sequence number went
    backwards — duplicate sequence numbers indicate retransmissions
    (the inference the paper sketches in §3.2.2). *)

val set_tap :
  t ->
  (rx:Planck_util.Time.t ->
  arrival:Planck_util.Time.t ->
  Planck_packet.Packet.t ->
  unit) ->
  unit
(** Raw sample stream (for experiments and extensions): every delivered
    frame with its processing ([rx]) and NIC [arrival] times, after the
    collector has accounted it. The frame is passed as is; a tap that
    wants its decoded headers calls {!sample}. *)

val sample :
  t ->
  rx:Planck_util.Time.t ->
  arrival:Planck_util.Time.t ->
  Planck_packet.Packet.t ->
  sample
(** Decode one tapped frame: flow key, payload, sequence number and the
    ports this collector infers for it. Allocates; call it only for the
    frames a tap actually inspects. *)

val on_estimate :
  t ->
  (Planck_packet.Flow_key.t -> Planck_util.Rate.t -> Planck_util.Time.t -> unit) ->
  unit
(** Called on every new per-flow rate estimate. *)

(** {2 Vantage point (§6.1)}

    Capture is opt-in: an operator asks one switch's collector to
    record what its monitor port saw. Until {!capture} is called the
    collector retains no frames, {!vantage_count} is 0 and
    {!vantage_pcap} is the bare 24-byte pcap header. *)

val capture : t -> capacity:int -> unit
(** Start (or resize) the vantage ring: from now on every delivered
    sample is kept, oldest dropped first, so the ring holds the newest
    [capacity] frames keyed by their rx time. Calling it again sets the
    new capacity and drops the oldest retained frames to fit. Raises
    [Invalid_argument] if [capacity <= 0]. *)

val vantage_pcap : t -> string
(** The retained sample ring as a pcap file image. *)

val vantage_count : t -> int
(** Frames the ring holds now; 0 before {!capture}. *)
