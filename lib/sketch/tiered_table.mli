(** Two-tier bounded-state flow accounting for the collector.

    Every data sample first lands in a conservative-update
    {!Count_min} sketch; a flow is promoted to an exact
    {!Planck_collector.Flow_table} entry (the tier all collector
    queries and TE decisions read) only once its sketch estimate
    crosses [promote_bytes]. When a promoted flow goes idle its entry
    expires and the bytes it accumulated are folded back into the
    sketch. Resident state is therefore O(sketch + elephants) no
    matter how many mice churn through the switch — the property that
    lets one collector track millions of concurrent flows.

    Plugs into the collector as a
    {!Planck_collector.Collector.Custom_backend} via {!table_kind};
    with the default [Exact] backend nothing here runs. Per-switch
    occupancy, promotion/demotion, and estimate-error telemetry go to
    {!Planck_telemetry.Metrics.default} (subsystem ["sketch"]), and
    promotions/demotions go to the journal given to {!create}. *)

type config = {
  seed : int;  (** sketch hash seeds derive from this *)
  depth : int;
  width : int;  (** sketch geometry; see {!Count_min.create} *)
  promote_bytes : int;
      (** sketch estimate at which a flow earns an exact entry *)
  max_exact : int;
      (** hard cap on exact entries; at the cap, would-be promotions
          stay in the sketch and are counted as suppressed *)
  decay_interval : Planck_util.Time.t;
      (** epoch length between sketch counter halvings *)
  sweep_interval : Planck_util.Time.t;
      (** how often idle exact entries are swept (demoted) *)
}

val default_config : config
(** 4 x 16384 sketch, promote at 8 full-size segments, 8192 exact
    entries, 10 ms decay, 5 ms sweep. *)

type t

val create :
  ?config:config -> switch:int -> flow_timeout:Planck_util.Time.t ->
  journal:Planck_telemetry.Journal.t -> unit -> t
(** One tier pair for one monitored switch. [flow_timeout] is the
    exact tier's idle timeout (the collector passes its own), and
    [journal] records its promotions and demotions. *)

val sample :
  t ->
  key:Planck_packet.Flow_key.t ->
  now:Planck_util.Time.t ->
  bytes:int ->
  max_rate:Planck_util.Rate.t ->
  dst_mac:Planck_packet.Mac.t ->
  Planck_collector.Flow_table.entry option
(** Account one data sample. [Some entry] when the flow holds (or just
    earned) an exact entry; [None] while it lives in the sketch only. *)

val tick : t -> now:Planck_util.Time.t -> unit
(** Housekeeping clock, run before each sample: sketch decay epochs
    and idle-entry sweeps. Two integer compares when nothing is due. *)

val table_kind : ?config:config -> unit -> Planck_collector.Collector.table_kind
(** The [Custom_backend] factory to put in a collector config: builds
    one fresh {!t} per monitored switch. *)

val sketch : t -> Count_min.t

val exact_size : t -> int
(** Resident exact entries (promoted flows not yet swept). *)

val promotions : t -> int

val demotions : t -> int

val suppressed_promotions : t -> int
(** Promotions refused because the exact tier was at [max_exact]. *)
