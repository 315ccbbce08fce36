(** An output-queued commodity switch with shared buffering and port
    mirroring.

    Models the parts of the IBM G8264 / Pronto 3290 behaviour the paper
    depends on:

    - L2 forwarding on destination MAC (the testbed routes on MACs —
      PAST spanning trees and shadow MACs, paper §4.2/§6.2);
    - a shared packet buffer with dynamic-threshold admission
      ({!Buffer_pool}), so congested ports shed load exactly as §5.1
      describes;
    - port mirroring: any set of data ports can be mirrored to one
      monitor port. Mirror copies contend for buffer space like any
      other traffic; when the monitor port is oversubscribed they queue
      and then drop — producing Planck's implicit sampling;
    - egress destination-MAC rewrite rules (shadow MAC → base MAC at the
      destination's edge switch, §6.2);
    - per-port counters (OpenFlow-style stats the polling baselines
      read).

    Mirror-copy arbitration into the monitor port is a single FIFO by
    default, like a real egress queue: the one-packet-per-flow
    interleaving of Figures 5–7 emerges from the synchronized arrival
    of copies from saturated ports, and a freshly mirrored flow's
    copies correctly wait behind the standing backlog (Figures 8/16).
    [Round_robin] per mirrored source port is available as an
    ablation. *)

type arbitration = Round_robin | Fifo

type config = {
  buffer_total : int;  (** shared packet memory, bytes (Trident: 9 MB) *)
  buffer_reservation : int;  (** static per-port reservation, bytes *)
  dt_alpha : float;  (** dynamic-threshold alpha *)
  pipeline_latency : Planck_util.Time.t;
      (** base ingress→egress processing latency *)
  pipeline_jitter : Planck_util.Time.t;
      (** uniform extra per-packet latency from fabric arbitration and
          memory banking; breaks the phase locks that perfectly
          periodic simulated streams would otherwise form at a
          saturated egress *)
  mirror_buffer_cap : int option;
      (** hard cap on the monitor port's buffer occupancy — the
          "minbuffer" firmware feature of §9.2; [None] = firmware
          default (full DT share) *)
  mirror_arbitration : arbitration;
  mirror_priority_special : bool;
      (** give SYN/FIN/RST mirror copies a strict-priority CoS queue on
          the monitor port, so flow starts/ends are observed without
          waiting behind the sample backlog (the paper's §9.2
          proposal) *)
  mirror_priority_max_fraction : float;
      (** bound on the fraction of mirrored packets admitted to the
          priority queue, so a SYN flood cannot suppress normal
          samples (§9.2) *)
}

val default_config : config
(** Trident-like: 9 MB total, 12 KiB per-port reservation, alpha 0.8,
    700 ns pipeline with 800 ns jitter, no mirror cap, FIFO mirror
    arbitration. *)

type t

val create :
  Engine.t ->
  name:string ->
  ports:int ->
  config:config ->
  ?prng:Planck_util.Prng.t ->
  unit ->
  t
(* [prng] drives the pipeline jitter; defaults to a generator seeded
   from [name] (still deterministic run-to-run). *)
val engine : t -> Engine.t

val connect :
  t ->
  port:int ->
  rate:Planck_util.Rate.t ->
  prop_delay:Planck_util.Time.t ->
  ?handoff:(Planck_util.Time.t -> Planck_packet.Packet.t -> unit) ->
  deliver:(Planck_packet.Packet.t -> unit) ->
  unit ->
  unit
(** Attach the given peer ingress function to [port]'s transmit side.
    Raises [Invalid_argument] if the port is already connected.
    [handoff] marks a cross-shard port: departures go to the shard
    channel with their arrival time and [deliver] is never called
    (see {!Txport.create}). *)

val ingress : t -> port:int -> Planck_packet.Packet.t -> unit
(** A frame fully arrived on [port]. This is the function to hand to the
    peer's transmit side. *)

(** {2 Forwarding state} *)

val add_route : t -> Planck_packet.Mac.t -> int -> unit
(** [add_route t mac port]: frames destined to [mac] leave via [port].
    Replaces any existing entry. *)

val remove_route : t -> Planck_packet.Mac.t -> unit
val route : t -> Planck_packet.Mac.t -> int option
val route_count : t -> int

val add_rewrite :
  t -> from_mac:Planck_packet.Mac.t -> to_mac:Planck_packet.Mac.t -> unit
(** Egress rewrite rule: frames destined to [from_mac] have their
    destination rewritten to [to_mac] before being queued out. *)

val add_flow_rewrite :
  t -> key:Planck_packet.Flow_key.t -> to_mac:Planck_packet.Mac.t -> unit
(** Ingress match-action rule: frames of flow [key] get their
    destination MAC rewritten to [to_mac] {e before} the forwarding
    lookup — the OpenFlow rerouting mechanism of §6.2. Replaces any
    existing rule for the key. *)

val remove_flow_rewrite : t -> key:Planck_packet.Flow_key.t -> unit
val flow_rewrite_count : t -> int

val add_forward_tap :
  t -> (in_port:int -> out_port:int -> Planck_packet.Packet.t -> unit) -> unit
(** Observe every successfully enqueued (non-mirror) frame — the hook
    the OpenFlow flow-counter and sFlow substrates use. Taps fire in
    registration order. *)

val inject : t -> port:int -> Planck_packet.Packet.t -> unit
(** Queue a frame directly on an egress port (an OpenFlow packet-out),
    subject to normal buffer admission. *)

(** {2 Mirroring} *)

val set_mirror : t -> monitor:int -> mirrored:int list -> unit
(** Mirror the egress traffic of every port in [mirrored] to the
    [monitor] port. Raises [Invalid_argument] if [monitor] is in
    [mirrored]. *)

val clear_mirror : t -> unit
val monitor_port : t -> int option

(** {2 Statistics} *)

type port_stats = {
  rx_packets : int;
  rx_bytes : int;
  tx_packets : int;
  tx_bytes : int;
  data_drops : int;  (** non-mirror frames dropped at this egress *)
  mirror_drops : int;  (** mirror copies dropped at this egress *)
}

val port_stats : t -> port:int -> port_stats
val special_mirrored : t -> int
(** Mirror copies that used the priority CoS queue. *)

val total_data_drops : t -> int
val total_mirror_drops : t -> int
val unroutable_drops : t -> int
val queue_bytes : t -> port:int -> int
(** Current egress occupancy of [port] (queued, incl. in-flight frame's
    buffer). *)

val buffer_used : t -> int

val check_buffer : t -> (unit, string) result
(** The buffer-accounting invariant, checked on every port: the bytes
    {!Buffer_pool} charges a port equal the bytes its transmit side
    holds (queued frames plus the one on the serializer). Holds between
    any two events; [Error] names the switch, the port and both byte
    counts. *)
