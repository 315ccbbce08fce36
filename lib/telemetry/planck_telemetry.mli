(** Always-on observability for the Planck reproduction: a typed metric
    registry ({!Metrics}), a correlated cross-layer event journal
    ({!Journal}) with its loop analyzer and Chrome [trace_event] view
    ({!Inspect}), a ground-truth time-series recorder ({!Timeseries}),
    snapshot writers ({!Export}), a sim-time [Logs] reporter
    ({!Reporter}), and the self-contained JSON codec they share
    ({!Json}).

    Instrumentation is compiled into the simulator's hot paths but
    guarded by per-registry enabled flags that default to off, so an
    uninstrumented run pays one branch per instrumentation point.
    Experiments and the CLI/bench [--metrics-out] / [--journal-out]
    flags flip the process-wide {!Metrics.default} / {!Journal.default}
    on; each engine of a sharded group records into its own shard
    journal. The journal is the only event stream: timelines are
    rendered from it after the run. *)

module Json = Json
module Metrics = Metrics
module Journal = Journal
module Timeseries = Timeseries
module Inspect = Inspect
module Export = Export
module Reporter = Reporter
