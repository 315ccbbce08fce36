(* sFlow baseline tests: 1-in-N selection, the control-plane rate cap,
   and multiply-by-N estimation accuracy/limits. *)

open Testbed
module Agent = Planck_sflow.Agent
module Estimator = Planck_sflow.Estimator
module Prng = Planck_util.Prng

let with_agent ?(config = Agent.default_config) () =
  let tb = single_switch () in
  let estimator = Estimator.create () in
  let agent =
    Agent.attach tb.engine (Fabric.switch tb.fabric 0) ~config
      ~prng:(Prng.create ~seed:11)
      ~collector:(fun s -> Estimator.add estimator s)
      ()
  in
  (tb, agent, estimator)

let agent_rate_cap () =
  let tb, agent, _est = with_agent () in
  (* A saturated flow forwards ~800k pps; with 1-in-256 selection that
     is ~3k selections/s, but only ~300/s may be exported. *)
  ignore (start_flow tb ~src:0 ~dst:1 ~size:(100 * 1024 * 1024) ());
  Engine.run ~until:(Time.ms 200) tb.engine;
  Alcotest.(check bool) "selections happened" true (Agent.selected agent > 100);
  Alcotest.(check bool) "export rate capped" true
    (Agent.exported agent <= 70 (* 0.2 s * 300/s + burst *));
  Alcotest.(check bool) "throttling recorded" true (Agent.throttled agent > 0);
  Alcotest.(check int) "conservation" (Agent.selected agent)
    (Agent.exported agent + Agent.throttled agent)

let estimator_needs_long_windows () =
  (* Even over a 1 s window, ~300 samples give roughly 11% error; over
     20 ms the estimate is useless. This is the Planck motivation. *)
  let tb, _agent, est = with_agent () in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(500 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 600) tb.engine;
  let now = Engine.now tb.engine in
  let u = Estimator.link_utilization est ~now ~out_port:1 in
  (* The flow runs at ~9.7 Gbps on the wire, but the CPU cap throttles
     samples *after* the 1-in-N selection, so multiply-by-N wildly
     underestimates — exactly the distortion §9.2 describes. *)
  Alcotest.(check bool)
    (Printf.sprintf "estimate distorted low: %.2f Gbps" (Rate.to_gbps u))
    true
    (Rate.to_gbps u > 0.0 && Rate.to_gbps u < 5.0);
  ignore flow;
  Alcotest.(check bool) "samples sparse" true
    (Estimator.samples_in_window est ~now < 400)

let expected_error_formula () =
  Alcotest.(check (float 0.5)) "s=300 error ~11.3%" 11.3
    (Estimator.expected_error ~samples:300);
  Alcotest.(check bool) "zero samples infinite" true
    (Float.is_integer (Estimator.expected_error ~samples:0) = false
    || Estimator.expected_error ~samples:0 = infinity)

let flow_rate_estimation () =
  let config = { Agent.default_config with Agent.max_samples_per_sec = 100_000 } in
  let tb, _agent, est = with_agent ~config () in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(500 * 1024 * 1024) () in
  (* Query while the flow is still running so the aggregation window
     holds only active traffic. *)
  Engine.run ~until:(Time.ms 150) tb.engine;
  let now = Engine.now tb.engine in
  let r = Estimator.flow_rate est ~now (Flow.key flow) in
  let truth = Rate.of_bytes_per (Flow.bytes_acked flow) now in
  (* With an uncapped CPU the 1-in-256 estimate lands near the true
     wire rate (within sampling noise). *)
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.2f Gbps vs true %.2f" (Rate.to_gbps r)
       (Rate.to_gbps truth))
    true
    (abs_float (Rate.to_gbps r -. Rate.to_gbps truth)
     < 0.25 *. Rate.to_gbps truth)

let tests =
  [
    Testbed.case "control-plane rate cap" `Quick agent_rate_cap;
    Testbed.case "sparse samples over short windows" `Quick
      estimator_needs_long_windows;
    Testbed.case "expected error formula" `Quick expected_error_formula;
    Testbed.case "flow rate estimation (uncapped)" `Quick
      flow_rate_estimation;
  ]
