(** Snapshot sinks for {!Metrics} registries.

    The JSON document renders {!Metrics.snapshot}, so it is
    deterministic (sorted by [(subsystem, name, label)]). Chrome
    timelines are a view of the journal: {!Inspect.chrome_trace}. *)

val metrics_to_json : Metrics.registry -> Json.t
(** [{"metrics": [{subsystem, name, label, kind, ...}, ...]}]. Counters
    carry [value]; gauges [value] and [max] (high-water); histograms
    [count], [sum], [min], [max] and non-empty [buckets] as
    [[lo, hi, count]] triples. *)

val metrics_json : Metrics.registry -> string

val write_file : path:string -> string -> unit
