(* Folds the passes of one workload into its metrics, and renders them
   as text lines and JSON. BENCHMARK.json at the repository root lists
   the end-to-end and per-layer names below, with their bounds. *)

module Json = Planck_telemetry.Json

type metric = { name : string; unit_ : string; value : float option }

(* Host-time and user-visible results, from the untraced passes. The
   host times are scaled to the calibration host (Reference.nominal_s),
   which cancels most of the drift of a shared host's speed. *)
let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("goodput_gbps", "Gbps");
  ]

(* Printed and written to --json but left out of the result line: the
   unscaled run time, which drifts with the load on a shared host, the
   number of CPU samples behind the cpu_share split, and the simulated
   results only some workloads have, with their sample counts. *)
let extra =
  [
    ("wall_raw_s", "s");
    ("sim_ms_per_s", "ms/s");
    ("cpu_samples", "count");
    ("fct_ms_p50", "ms");
    ("fct_ms_p99", "ms");
    ("fct_ms_n", "count");
    ("reroute_ms_p50", "ms");
    ("reroute_ms_n", "count");
    ("fail_frac", "ratio");
  ]

let per_layer =
  [
    ("engine.events", "count");
    ("engine.events_per_s", "1/s");
    ("engine.pending_max", "count");
    ("engine.timers_cancelled", "count");
    ("engine.alloc_words_per_event", "words");
    ("gc.major_collections", "count");
    ("switch.data_drops", "count");
    ("switch.mirror_drops", "count");
    ("switch.mirror_survival_frac", "ratio");
    ("tcp.retransmits", "count");
    ("tcp.timeouts", "count");
    ("collector.samples", "count");
    ("collector.data_frac", "ratio");
    ("collector.flows_tracked", "count");
    ("collector.detect_ms_p50", "ms");
    ("te.notifications", "count");
    ("te.reroutes", "count");
    ("te.reroutes_per_notification", "ratio");
    ("journal.events", "count");
    ("journal.writer_s", "s");
    ("shard.event_imbalance_pct", "%");
    ("setup.testbed_s", "s");
    ("setup.deploy_s", "s");
    ("sink.ring_drops", "count");
    ("sketch.promotions", "count");
    ("sketch.demotions", "count");
  ]
  @ List.map (fun l -> ("cpu_share." ^ l, "%")) (Array.to_list Layer.all)
  @ [ ("trace_overhead_pct", "%") ]

(* choosing-metrics: report a percentile only when at least ten samples
   lie beyond it. *)
let supported ~p n = float_of_int n *. (100. -. p) /. 100. >= 10.

let percentile ~p values =
  if supported ~p (List.length values) then
    Some (Planck_util.Stats.percentile p values)
  else None

let median = function [] -> None | xs -> Some (Planck_util.Stats.median xs)
let ratio a b = if b > 0. then a /. b else 0.

type summary = {
  workload : string;
  passes : int;
  traced_passes : int;
  attempted : int;
  failed : int;
  digest : string;
  errors : string list;
  metrics : metric list;  (** end_to_end, extra, per_layer order *)
}

let correct s = s.errors = []
let catalog = end_to_end @ extra @ per_layer

let summarize workload (passes : Workload.pass list) =
  let untraced, traced =
    List.partition (fun (p : Workload.pass) -> not p.traced) passes
  in
  let first = List.hd passes in
  (* Counts are the same in every pass (the digest check below);
     a traced pass also has the registry counts. *)
  let reference = match traced with p :: _ -> p | [] -> first in
  let counter name = List.assoc_opt name reference.counters in
  let count name = Option.value ~default:0. (counter name) in
  let med (f : Workload.pass -> float) ps = median (List.map f ps) in
  let wall = med (fun p -> p.run_s) untraced in
  let scaled (f : Workload.pass -> float) ps = med (fun p -> f p *. p.calibration) ps in
  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
  let attempted = sum (fun p -> p.attempted) in
  let failed = sum (fun p -> p.failed) in
  let samples =
    List.fold_left
      (fun acc (p : Workload.pass) -> Array.map2 ( + ) acc p.samples)
      (Array.make Layer.count 0) traced
  in
  let total_samples = float_of_int (Array.fold_left ( + ) 0 samples) in
  let n xs = Some (float_of_int (List.length xs)) in
  let derived =
    [
      ("wall_s", scaled (fun p -> p.run_s) untraced);
      ("setup_s", scaled (fun p -> p.setup_s) untraced);
      ("wall_raw_s", wall);
      ("sim_ms_per_s", med (fun p -> p.sim_ms /. p.run_s) untraced);
      ("peak_rss_mb", med (fun p -> p.peak_rss_mb) untraced);
      ("goodput_gbps", Some first.goodput_gbps);
      ("cpu_samples", if traced = [] then None else Some total_samples);
      ("fct_ms_p50", percentile ~p:50. first.fct_ms);
      ("fct_ms_p99", percentile ~p:99. first.fct_ms);
      ("fct_ms_n", n first.fct_ms);
      ("reroute_ms_p50", percentile ~p:50. first.reroute_ms);
      ("reroute_ms_n", n first.reroute_ms);
      ("fail_frac", Some (ratio (float_of_int failed) (float_of_int attempted)));
      ("engine.events_per_s", Option.map (ratio (count "engine.events")) wall);
      ( "engine.alloc_words_per_event",
        Some (ratio (count "engine.alloc_words") (count "engine.events")) );
      ( "switch.mirror_survival_frac",
        let tx = count "switch.monitor_tx" in
        Some (ratio tx (tx +. count "switch.mirror_drops")) );
      ( "collector.data_frac",
        Some (ratio (count "collector.data_samples") (count "collector.samples")) );
      (* 0 on the workloads without a collision to detect *)
      ( "collector.detect_ms_p50",
        if first.detect_ms = [] then Some 0. else percentile ~p:50. first.detect_ms );
      ( "te.reroutes_per_notification",
        Some (ratio (count "te.reroutes") (count "te.notifications")) );
      ( "journal.writer_s",
        med (fun p -> List.assoc "journal.writer_s" p.counters) traced );
      ( "setup.testbed_s",
        med (fun p -> Spans.sum_named "Testbed.create" p.spans) untraced );
      ( "setup.deploy_s",
        med (fun p -> Spans.sum_named "Scheme.deploy" p.spans) untraced );
      ( "trace_overhead_pct",
        let run = scaled (fun p -> p.run_s) in
        match (run traced, run untraced) with
        | Some t, Some u -> Some (100. *. ((t /. u) -. 1.))
        | _ -> None );
    ]
    @ Array.to_list
        (Array.mapi
           (fun i layer ->
             ( "cpu_share." ^ layer,
               if traced = [] then None
               else Some (100. *. ratio (float_of_int samples.(i)) total_samples) ))
           Layer.all)
  in
  let value name =
    match List.assoc_opt name derived with Some v -> v | None -> counter name
  in
  let errors =
    List.concat_map (fun (p : Workload.pass) -> p.errors) passes
    @
    if List.exists (fun (p : Workload.pass) -> p.digest <> first.digest) passes
    then [ "passes of one seed simulated different things (sim_digest differs)" ]
    else []
  in
  {
    workload;
    passes = List.length passes;
    traced_passes = List.length traced;
    attempted;
    failed;
    digest = first.digest;
    errors;
    metrics = List.map (fun (name, unit_) -> { name; unit_; value = value name }) catalog;
  }

(* A pass that crashed counts as one attempt, failed. *)
let crashed workload reason =
  {
    workload;
    passes = 0;
    traced_passes = 0;
    attempted = 1;
    failed = 1;
    digest = "";
    errors = [ reason ];
    metrics =
      List.map
        (fun (name, unit_) ->
          { name; unit_; value = (if name = "fail_frac" then Some 1. else None) })
        catalog;
  }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

(* "<workload> <metric> <value> <unit>", one line per measured metric. *)
let lines s =
  List.filter_map
    (fun m ->
      Option.map
        (fun v -> Printf.sprintf "%s %s %s %s" s.workload m.name (number v) m.unit_)
        m.value)
    s.metrics
  @ [ Printf.sprintf "%s sim_digest %s hex" s.workload s.digest ]
  @ List.map (fun e -> Printf.sprintf "%s FAILED %s" s.workload e) s.errors

let metric_json m =
  Json.Obj
    [
      ("value", match m.value with Some v -> Json.Float v | None -> Json.Null);
      ("unit", Json.String m.unit_);
    ]

let summary_json s =
  Json.Obj
    [
      ("passes", Json.Int s.passes);
      ("traced_passes", Json.Int s.traced_passes);
      ("correct", Json.Bool (correct s));
      ("attempted", Json.Int s.attempted);
      ("failed", Json.Int s.failed);
      ("sim_digest", Json.String s.digest);
      ("errors", Json.List (List.map (fun e -> Json.String e) s.errors));
      ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) s.metrics));
    ]

(* The last line of stdout: the end-to-end metrics, or the per-layer
   ones for a traced run. With several workloads each name is prefixed
   by its workload. *)
let result_line ~trace summaries =
  let wanted = List.map fst (if trace then per_layer else end_to_end) in
  let prefix s = match summaries with [ _ ] -> "" | _ -> s.workload ^ "." in
  let metrics =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun m ->
            if m.value <> None && List.mem m.name wanted then
              Some (prefix s ^ m.name, metric_json m)
            else None)
          s.metrics)
      summaries
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 summaries in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all correct summaries));
         ("attempted", Json.Int (sum (fun s -> s.attempted)));
         ("failed", Json.Int (sum (fun s -> s.failed)));
         ("metrics", Json.Obj metrics);
       ])
