(** Interprocedural determinism-taint rule.

    Sources (wall clock, ambient randomness, unsorted Hashtbl iteration)
    taint their enclosing def and every transitive caller; a finding is
    reported only when a tainted def directly references a sim-visible
    sink (journal/timeseries payloads, engine scheduling, routing/TE
    decisions). Findings carry the witness chain and are located at the
    source occurrence, so inline suppressions on the source line apply. *)

type config = {
  sink_patterns : string list;
      (** dotted-suffix patterns, e.g. ["Journal.record"] *)
  exempt_source : string -> bool;
      (** files whose sources are exempt (real-time telemetry) *)
}

val default_config : config

val report : ?config:config -> Lint_cmt_index.t -> Lint_finding.t list
