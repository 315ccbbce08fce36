(** End-to-end experiment execution: build a testbed, deploy a scheme,
    run a workload, report per-flow results — the machinery behind the
    §7 evaluation figures. *)

type workload =
  | Stride of int
  | Shuffle of { concurrency : int }
  | Random_bijection
  | Random
  | Staggered_prob of { p_edge : float; p_pod : float }
  | Churn of Planck_workloads.Generate.churn_spec
      (** Poisson flow arrivals (mice plus periodic elephants); flow
          sizes come from the spec, so [size] is ignored. The
          bounded-state stressor. *)

val workload_name : workload -> string

type summary = {
  workload : workload;
  scheme_name : string;
  flow_size : int;
  avg_goodput_gbps : float;
  flows : Planck_workloads.Runner.flow_result list;
  host_done : Planck_util.Time.t option array option;
      (** shuffle only: per-host completion times *)
  reroutes : int;
  all_completed : bool;
}

val with_observer :
  (Testbed.t -> Scheme.deployed -> (Planck_tcp.Flow.t -> unit) option) ->
  (unit -> 'a) ->
  'a
(** [with_observer f body] runs [body] with [f] watching every {!run}
    it makes. Because {!run} builds its testbed internally, callers
    that record ground truth (e.g. {!Recorder}) hook in here: [f] runs
    after the scheme is deployed and may return a callback that sees
    every flow the workload starts. An observer installed by an
    enclosing [with_observer] keeps running beside [f] (it is called
    first, and every returned callback runs); once [body] returns or
    raises, it alone is installed again. *)

val shard_refusal :
  shards:int option -> scheme:Scheme.t -> workload:workload -> string option
(** Why {!run} refuses [scheme] and [workload] on [shards] domains, or
    [None] if it runs them: {!Scheme.shard_refusal} on more than one
    shard, and the shuffle and churn workloads on any shard group. *)

val run :
  spec:Testbed.spec ->
  scheme:Scheme.t ->
  workload:workload ->
  size:int ->
  ?flow_table:Scheme.flow_table ->
  ?horizon:Planck_util.Time.t ->
  ?seed:int ->
  unit ->
  summary
(** One run: a fresh testbed per call, so runs are independent.
    [seed] overrides the spec's seed (vary it across repetitions).
    [flow_table] (default [Exact]) selects the collector's flow-state
    backend; see {!Scheme.deploy}. Raises [Invalid_argument] when
    {!shard_refusal} refuses the run. *)

val repeat :
  runs:int ->
  spec:Testbed.spec ->
  scheme:Scheme.t ->
  workload:workload ->
  size:int ->
  ?flow_table:Scheme.flow_table ->
  ?horizon:Planck_util.Time.t ->
  unit ->
  summary list
(** [runs] independent repetitions with seeds [spec.seed + i]. *)

val mean_avg_goodput : summary list -> float

val with_outputs :
  ?metrics_out:string ->
  ?journal_out:string ->
  ?timeseries_out:string ->
  ?timeseries_interval:Planck_util.Time.t ->
  (unit -> 'a) ->
  ('a, string) result
(** The outputs behind the CLI's and the bench's [--metrics-out],
    [--journal-out] and [--timeseries-out]. Each given path is
    truncated first; one that cannot be written returns
    [Error "cannot write <reason>"] before [body] runs. [body] then
    runs with {!Planck_telemetry.Metrics.default} and
    {!Planck_telemetry.Journal.default} enabled as asked (their flags
    are restored afterwards), the journal streamed to [journal_out] as
    NDJSON, and, for [timeseries_out], a {!Recorder} sampling every
    [timeseries_interval] (default 500 us, estimates from the
    controller's [flow_rate]) on every {!run}'s testbed. Then the
    journal, the last run's time-series CSV and the metric snapshot
    are written and each reported once on stdout, in that order. *)
