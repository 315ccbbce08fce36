(* Baseline-scheme tests: the polling TE loop, Hedera-style demand
   estimation behaviour, and the Table-1 latency models. *)

open Testbed
module Poller = Planck_baselines.Poller
module Latency_models = Planck_baselines.Latency_models
module Control_channel = Planck_openflow.Control_channel
module Reroute = Planck_controller.Reroute
module Prng = Planck_util.Prng

let make_poller tb ~period =
  let channel =
    Control_channel.create tb.engine ~prng:(Prng.create ~seed:5) ()
  in
  Poller.create tb.engine ~routing:tb.routing ~channel ~link_rate:rate_10g
    ~config:
      { Poller.period; elephant_threshold = 0.1; mechanism = Reroute.Arp }
    ()

let poller_polls_on_schedule () =
  let tb, _shape = fat_tree () in
  let poller = make_poller tb ~period:(Time.ms 50) in
  Engine.run ~until:(Time.ms 260) tb.engine;
  Alcotest.(check int) "5 polls in 260ms" 5 (Poller.polls poller)

let poller_fixes_collision () =
  let tb, _shape = fat_tree () in
  let poller = make_poller tb ~period:(Time.ms 50) in
  (* Two long flows colliding on base routes; the first poll measures,
     the second can act on fresh counters. *)
  let f1 = start_flow tb ~src:0 ~dst:8 ~size:(300 * 1024 * 1024) () in
  let f2 = start_flow tb ~src:1 ~dst:9 ~size:(300 * 1024 * 1024) () in
  Engine.run ~until:(Time.s 2) tb.engine;
  Alcotest.(check bool) "rerouted" true (Poller.reroutes poller >= 1);
  Alcotest.(check bool) "completed" true
    (Flow.completed f1 && Flow.completed f2);
  let g f = Planck_util.Rate.to_gbps (Option.get (Flow.goodput f)) in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate improved: %.1f + %.1f" (g f1) (g f2))
    true
    (g f1 +. g f2 > 11.0)

let poller_ignores_mice () =
  let tb, _shape = fat_tree () in
  let poller = make_poller tb ~period:(Time.ms 50) in
  (* Mice (well under 10% of link rate) never trigger placement. *)
  let next_port = ref 7_000 in
  for i = 0 to 4 do
    Engine.every tb.engine ~period:(Time.ms 20) ~until:(Time.ms 380)
      (fun () ->
        incr next_port;
        ignore
          (Flow.start ~src:tb.endpoints.(i) ~dst:tb.endpoints.(i + 8)
             ~src_port:!next_port ~dst_port:(5_000 + i) ~size:20_000 ()))
  done;
  Engine.run ~until:(Time.ms 400) tb.engine;
  Alcotest.(check int) "no reroutes for mice" 0 (Poller.reroutes poller)

let latency_model_slowdowns () =
  let helios =
    List.find
      (fun e -> e.Latency_models.system = "Helios")
      Latency_models.published
  in
  let lo, hi = Latency_models.slowdown helios ~reference:(Time.ms 4 + Time.us 200) in
  Alcotest.(check bool) "Helios ~18x vs 4.2ms" true
    (lo > 17.0 && hi < 19.0);
  Alcotest.(check int) "five published systems" 5
    (List.length Latency_models.published)

let sflow_te_is_worse_than_poll () =
  (* The OpenSample-style scheme works, but its throttled samples make
     its decisions no better (typically worse) than counter polling at
     the same period — the measurement quality is the difference. *)
  let run scheme =
    let summary =
      Planck.Experiment.run
        ~spec:(Planck.Testbed.paper_fat_tree ())
        ~scheme ~workload:(Planck.Experiment.Stride 8)
        ~size:(150 * 1024 * 1024) ~horizon:(Time.s 20) ()
    in
    summary.Planck.Experiment.avg_goodput_gbps
  in
  let sflow = run Planck.Scheme.sflow_te_default in
  let static = run Planck.Scheme.Static in
  Alcotest.(check bool)
    (Printf.sprintf "sflow-te %.2f functions (static %.2f)" sflow static)
    true
    (sflow >= static -. 0.8 && sflow < 10.0)

let sflow_te_rounds () =
  let tb, _shape = fat_tree () in
  let channel =
    Control_channel.create tb.engine ~prng:(Prng.create ~seed:9) ()
  in
  let te =
    Planck_baselines.Sflow_te.create tb.engine ~routing:tb.routing ~channel
      ~link_rate:rate_10g ~prng:(Prng.create ~seed:10) ()
  in
  ignore (start_flow tb ~src:0 ~dst:8 ~size:(100 * 1024 * 1024) ());
  Engine.run ~until:(Time.ms 450) tb.engine;
  Alcotest.(check int) "4 rounds in 450ms" 4
    (Planck_baselines.Sflow_te.rounds te);
  Alcotest.(check bool) "samples received" true
    (Planck_baselines.Sflow_te.samples_received te > 0)

let tests =
  [
    Testbed.case "poller polls on schedule" `Quick
      poller_polls_on_schedule;
    Testbed.case "poller fixes a collision" `Slow poller_fixes_collision;
    Testbed.case "poller ignores mice" `Quick poller_ignores_mice;
    Testbed.case "latency model slowdowns" `Quick latency_model_slowdowns;
    Testbed.case "sflow-te functions as a (weak) baseline" `Slow
      sflow_te_is_worse_than_poll;
    Testbed.case "sflow-te control rounds" `Quick sflow_te_rounds;
  ]

let () = Run_suites.run "planck-baselines" [ ("baselines", tests) ]
