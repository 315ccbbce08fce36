(** Pure analysis over a {!Journal}: rebuild correlated control loops
    and summarize them.

    This is the engine behind [planck_cli inspect]: given the events of
    a journal (live or parsed back from NDJSON) it decomposes each
    correlation id into the named stages of the paper's Fig 12/15
    timeline — detect (congestion seen at the collector), notify
    (controller received the event), decide (TE picked a new route),
    install (ARP packet_out injected / OpenFlow rule installed), and
    effective (first sample of the flow on its new path, the Fig 16
    vantage point). {!chrome_trace} renders the same loops as a
    timeline. *)

module Time = Planck_util.Time

type loop = {
  corr : int;
  flow : string option;
      (** [None] when the congestion event produced no reroute (e.g. TE
          found no better path). *)
  detect : Time.t;
  notify : Time.t option;
  decide : Time.t option;
  install : Time.t option;
  effective : Time.t option;
}
(** One (correlation id, rerouted flow) pair. A congestion event that
    reroutes several flows yields several loops sharing [detect] and
    [notify]. *)

val complete : loop -> bool
(** All five stages present. *)

val total : loop -> Time.t option
(** detect -> effective, when complete. *)

val loops : Journal.event list -> loop list
(** Rebuild loops, ordered by detection time. *)

val stage_durations : loop list -> (string * float list) list
(** For the four inter-stage legs plus the total, in timeline order
    (["detect->notify"] ... ["detect->effective"]), the leg's duration
    in milliseconds for every complete loop (use
    {!Planck_util.Stats.percentile} on each list). *)

val flap_counts : Journal.event list -> (string * int) list
(** Reroute decisions per flow, most-rerouted first. A flow rerouted
    more than once within a journal is flapping. *)

val count_events : Journal.event list -> (string * int) list
(** Occurrences per event name ("packet_drop", "retransmit", ...),
    descending. *)

val chrome_trace : Journal.event list -> string
(** The journal as a Chrome [trace_event] JSON document
    ([{"traceEvents": [...]}]) for [chrome://tracing] or Perfetto:
    - one [control_loop] span per correlation id, from detection to the
      latest stage recorded under that id. Spans are async [b]/[e]
      pairs with [id] = the correlation id, so overlapping loops render
      side by side rather than nested;
    - one instant per correlated stage event and per phase marker,
      named by the journal's [ev], with its NDJSON fields (including
      [corr]) as args. Uncorrelated events (drops, retransmits,
      estimates) are left out.

    Each journal [src] is its own process, named by [process_name]
    metadata. Events are stably sorted by timestamp. [ts] is in
    microseconds; integer-nanosecond stamps divide by 1000 exactly in a
    double, so they round-trip. *)

val estimate_errors :
  names:string list ->
  rows:(float * float array) list ->
  (string * float) list
(** Pair [true:<flow>] / [est:<flow>] timeseries columns and compute
    each flow's mean relative estimation error over samples where the
    true rate is significant (> 0.05 Gbps) and the estimate is
    defined. *)

(** {2 CPU samples}

    [planck_cli run --profile] and [capture --profile] charge SIGPROF
    ticks to the simulator layer on top of the stack, and with
    [--metrics-out] record one [profile.cpu_samples] counter per layer
    (label = layer name). *)

val cpu_samples_of_metrics_json : Json.t -> ((string * int) list, string) result
(** [(layer, samples)] for every [profile.cpu_samples] counter in a
    [{"metrics": [...]}] document written by {!Export.metrics_to_json};
    [Error] if the document is not a metrics snapshot. *)

val render_cpu_samples : (string * int) list -> string
(** Plain-text table of the layers with samples, most-sampled first:
    sample count and share of the total, then a [total] line. *)
