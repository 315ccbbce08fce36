(* Cross-layer integration tests over the Planck umbrella API: scheme
   orderings the paper's evaluation depends on, the poller baseline in
   action, and end-to-end control-loop latency. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate

(* the buffer-audited fixtures, before [open Planck] shadows [Testbed] *)
module Fixtures = Testbed

open Planck

let run ~scheme ~spec ?(size = 25 * 1024 * 1024) () =
  Experiment.run ~spec ~scheme ~workload:(Experiment.Stride 8) ~size
    ~horizon:(Time.s 20) ()

let planck_te_beats_static () =
  let static = run ~scheme:Scheme.Static ~spec:(Testbed.paper_fat_tree ()) () in
  let te =
    run ~scheme:Scheme.planck_te_default ~spec:(Testbed.paper_fat_tree ()) ()
  in
  let optimal = run ~scheme:Scheme.Static ~spec:(Testbed.optimal ()) () in
  Alcotest.(check bool) "all complete" true
    (static.Experiment.all_completed && te.Experiment.all_completed
   && optimal.Experiment.all_completed);
  Alcotest.(check bool)
    (Printf.sprintf "ordering: static %.2f < te %.2f <= optimal %.2f"
       static.Experiment.avg_goodput_gbps te.Experiment.avg_goodput_gbps
       optimal.Experiment.avg_goodput_gbps)
    true
    (static.Experiment.avg_goodput_gbps +. 1.0
     < te.Experiment.avg_goodput_gbps
    && te.Experiment.avg_goodput_gbps
       <= optimal.Experiment.avg_goodput_gbps +. 0.3);
  Alcotest.(check bool) "te rerouted" true (te.Experiment.reroutes > 0)

let poller_reroutes_long_flows () =
  (* 100 ms polling cannot help 25 MiB flows (they finish first), but
     must catch flows that live for many poll periods. *)
  let short =
    run ~scheme:Scheme.poll_100ms ~spec:(Testbed.paper_fat_tree ()) ()
  in
  Alcotest.(check int) "short flows see no reroutes" 0
    short.Experiment.reroutes;
  let long =
    run ~scheme:Scheme.poll_100ms
      ~spec:(Testbed.paper_fat_tree ())
      ~size:(400 * 1024 * 1024) ()
  in
  Alcotest.(check bool) "long flows get rerouted" true
    (long.Experiment.reroutes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "long flows improved: %.2f > 5.5"
       long.Experiment.avg_goodput_gbps)
    true
    (long.Experiment.avg_goodput_gbps > 5.5)

let detection_latency_under_2ms () =
  (* Fig 15 companion: flow 2 starts into flow 1's link; measure the
     time from flow 2's first data packet to the congestion event. *)
  let testbed = Testbed.create (Testbed.paper_fat_tree ()) in
  Fixtures.observe testbed;
  let controller =
    Planck_controller.Controller.create testbed.Testbed.engine
      ~routing:testbed.Testbed.routing ~link_rate:(Rate.gbps 10.0)
      ~prng:(Planck_util.Prng.create ~seed:7)
      ()
  in
  let first_event = ref None in
  List.iter
    (fun c ->
      Planck_collector.Collector.subscribe_congestion c ~threshold:0.5
        (fun e ->
          if !first_event = None then
            first_event := Some e.Planck_collector.Collector.time))
    (Planck_controller.Controller.collectors controller);
  (* Flow 1 reaches steady state alone, then flow 2 joins. *)
  ignore
    (Planck_tcp.Flow.start ~src:testbed.Testbed.endpoints.(0)
       ~dst:testbed.Testbed.endpoints.(8) ~src_port:1 ~dst_port:2
       ~size:(100 * 1024 * 1024) ());
  Planck_netsim.Engine.run ~until:(Time.ms 20) testbed.Testbed.engine;
  first_event := None;
  let second_start = Planck_netsim.Engine.now testbed.Testbed.engine in
  ignore
    (Planck_tcp.Flow.start ~src:testbed.Testbed.endpoints.(1)
       ~dst:testbed.Testbed.endpoints.(9) ~src_port:3 ~dst_port:4
       ~size:(100 * 1024 * 1024) ());
  Planck_netsim.Engine.run ~until:(Time.ms 40) testbed.Testbed.engine;
  match !first_event with
  | None -> Alcotest.fail "no congestion event"
  | Some t ->
      let latency = t - second_start in
      Alcotest.(check bool)
        (Printf.sprintf "detected in %s" (Time.to_string latency))
        true
        (latency < Time.ms 10)

let has_substring line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

(* A 5 MiB stride(8) PlanckTE run with the journal on, streaming only the
   NDJSON lines [keep] accepts: a full run drops far more packets than
   the default ring holds, and the early loops must not be lost to
   eviction. Returns the run summary and the parsed events. *)
let planck_te_journal ~keep =
  let module Journal = Planck_telemetry.Journal in
  let buf = Buffer.create 4096 in
  let was = Journal.enabled Journal.default in
  Journal.set_enabled Journal.default true;
  Journal.set_writer Journal.default
    (Some
       (fun line ->
         if keep line then begin
           Buffer.add_string buf line;
           Buffer.add_char buf '\n'
         end));
  let summary =
    Fun.protect
      ~finally:(fun () ->
        Journal.set_writer Journal.default None;
        Journal.set_enabled Journal.default was;
        Journal.clear Journal.default)
      (fun () ->
        run ~scheme:Scheme.planck_te_default
          ~spec:(Testbed.paper_fat_tree ())
          ~size:(5 * 1024 * 1024) ())
  in
  match Journal.of_ndjson (Buffer.contents buf) with
  | Error e -> Alcotest.failf "streamed journal invalid: %s" e
  | Ok events -> (summary, events)

(* The flight recorder end to end: a PlanckTE run with the journal on
   must produce at least one control loop with all five correlated
   stages (detect -> notify -> decide -> install -> effective), in
   timeline order and millisecond-scale overall — the Fig 12/15/16
   decomposition the inspect subcommand prints. *)
let journal_records_complete_control_loops () =
  let module Inspect = Planck_telemetry.Inspect in
  let keep =
    [
      "congestion_detected"; "notified"; "reroute_decision";
      "reroute_install"; "reroute_effective";
    ]
  in
  let summary, events =
    planck_te_journal ~keep:(fun line ->
        List.exists
          (fun ev -> has_substring line ("\"ev\":\"" ^ ev ^ "\""))
          keep)
  in
  Alcotest.(check bool) "run rerouted" true (summary.Experiment.reroutes > 0);
  let loops = Inspect.loops events in
  let complete = List.filter Inspect.complete loops in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d loops complete" (List.length complete)
       (List.length loops))
    true (complete <> []);
  Alcotest.(check int) "one loop per reroute decision"
    summary.Experiment.reroutes
    (List.length (List.filter (fun l -> l.Inspect.flow <> None) loops));
  List.iter
    (fun (l : Inspect.loop) ->
      let ordered =
        match
          (l.Inspect.notify, l.Inspect.decide, l.Inspect.install,
           l.Inspect.effective)
        with
        | Some n, Some d, Some i, Some e ->
            l.Inspect.detect <= n && n <= d && d <= i && i <= e
        | _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "loop %d stages in timeline order" l.Inspect.corr)
        true ordered;
      match Inspect.total l with
      | Some total ->
          Alcotest.(check bool)
            (Printf.sprintf "loop %d total %s is millisecond-scale"
               l.Inspect.corr (Time.to_string total))
            true
            (total > 0 && total < Time.ms 10)
      | None -> ())
    complete

(* The Chrome view of the same run: exactly one control_loop begin/end
   pair per correlation id, and one reroute_decision instant per
   reroute the scheme counted. *)
let chrome_view_of_te_journal () =
  let module Journal = Planck_telemetry.Journal in
  let module Inspect = Planck_telemetry.Inspect in
  let module Json = Planck_telemetry.Json in
  let summary, events =
    planck_te_journal ~keep:(fun line ->
        has_substring line "\"corr\":" || has_substring line "\"ev\":\"phase\"")
  in
  let trace =
    match Json.of_string (Inspect.chrome_trace events) with
    | Error e -> Alcotest.failf "chrome JSON invalid: %s" e
    | Ok doc ->
        Option.value ~default:[]
          (Option.bind (Json.member doc "traceEvents") Json.to_list_opt)
  in
  let str e key = Option.bind (Json.member e key) Json.to_string_opt in
  let span_ids ph =
    List.filter_map
      (fun e ->
        if str e "name" = Some "control_loop" && str e "ph" = Some ph then
          Option.bind (Json.member e "id") Json.to_int_opt
        else None)
      trace
    |> List.sort Int.compare
  in
  let corrs =
    List.filter_map (fun ev -> ev.Journal.corr) events
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check bool) "loops recorded" true (corrs <> []);
  Alcotest.(check (list int)) "one begin per correlation id" corrs
    (span_ids "b");
  Alcotest.(check (list int)) "one end per correlation id" corrs
    (span_ids "e");
  Alcotest.(check int) "one reroute_decision instant per reroute"
    summary.Experiment.reroutes
    (List.length
       (List.filter
          (fun e ->
            str e "name" = Some "reroute_decision" && str e "ph" = Some "i")
          trace))

(* The whole stack pinned across scheduler changes: a PlanckTE run
   (same spec, same seed) must stream the control-loop journal — every
   congestion detection, notification, reroute decision, install, and
   effective timestamp (the Fig 15 timeline) — recorded when the
   engine's queue was a hierarchical timer wheel, itself checked
   byte-identical against the pre-wheel heap. The digest is that
   journal's: a scheduler that reorders any event anywhere changes it.
   The CLI writes the same journal:
     planck_cli run --scheme planck --size-mib 5 --seed 1 --journal-out F
   prints 9 reroutes, and [md5sum F] and [wc -c F] give the two
   constants below. A change that moves event order on purpose (one
   that moves the bench's sim_digest, such as event fusion) must
   regenerate them with that command, alongside its journal check. *)
let reroute_timeline_scheduler_invariant () =
  let module Journal = Planck_telemetry.Journal in
  let buf = Buffer.create 4096 in
  let was_enabled = Journal.enabled Journal.default in
  Journal.clear Journal.default;
  Journal.set_enabled Journal.default true;
  Journal.set_writer Journal.default
    (Some
       (fun line ->
         Buffer.add_string buf line;
         Buffer.add_char buf '\n'));
  let summary =
    Fun.protect
      ~finally:(fun () ->
        Journal.set_writer Journal.default None;
        Journal.set_enabled Journal.default was_enabled;
        Journal.clear Journal.default)
      (fun () ->
        run ~scheme:Scheme.planck_te_default
          ~spec:(Testbed.paper_fat_tree ())
          ~size:(5 * 1024 * 1024) ())
  in
  let journal = Buffer.contents buf in
  Alcotest.(check int) "reroutes" 9 summary.Experiment.reroutes;
  Alcotest.(check int) "journal size" 13_969_794 (String.length journal);
  Alcotest.(check string) "journal digest" "8243dca984c88c4ead6e2f2980ab9b53"
    (Digest.to_hex (Digest.string journal))

let experiment_repeat_varies_seeds () =
  let summaries =
    Experiment.repeat ~runs:2 ~spec:(Testbed.paper_fat_tree ())
      ~scheme:Scheme.Static ~workload:Experiment.Random_bijection
      ~size:(4 * 1024 * 1024) ~horizon:(Time.s 5) ()
  in
  Alcotest.(check int) "two runs" 2 (List.length summaries);
  List.iter
    (fun s ->
      Alcotest.(check bool) "completed" true s.Experiment.all_completed)
    summaries;
  Alcotest.(check bool) "mean defined" true
    (Experiment.mean_avg_goodput summaries > 0.0)

let optimal_beats_everything_qcheck =
  QCheck.Test.make ~name:"optimal >= static on random bijections" ~count:3
    QCheck.(int_range 1 1000)
    (fun seed ->
      Fixtures.audit @@ fun () ->
      let size = 4 * 1024 * 1024 in
      let static =
        Experiment.run
          ~spec:(Testbed.paper_fat_tree ~seed ())
          ~scheme:Scheme.Static ~workload:Experiment.Random_bijection ~size
          ~horizon:(Time.s 5) ()
      in
      let optimal =
        Experiment.run
          ~spec:(Testbed.optimal ~seed ())
          ~scheme:Scheme.Static ~workload:Experiment.Random_bijection ~size
          ~horizon:(Time.s 5) ()
      in
      optimal.Experiment.avg_goodput_gbps
      >= static.Experiment.avg_goodput_gbps -. 0.4)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Fixtures.case "PlanckTE beats Static, bounded by Optimal" `Slow
      planck_te_beats_static;
    Fixtures.case "poller helps only long flows" `Slow
      poller_reroutes_long_flows;
    Fixtures.case "congestion detected within ms" `Quick
      detection_latency_under_2ms;
    Fixtures.case "journal records complete control loops" `Quick
      journal_records_complete_control_loops;
    Fixtures.case "chrome view of a PlanckTE journal" `Quick
      chrome_view_of_te_journal;
    Fixtures.case "reroute timeline invariant under scheduler swap"
      `Quick reroute_timeline_scheduler_invariant;
    Fixtures.case "repeat varies seeds" `Quick
      experiment_repeat_varies_seeds;
    qtest optimal_beats_everything_qcheck;
  ]

let () = Run_suites.run "planck-integration" [ ("integration", tests) ]
