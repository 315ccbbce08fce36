(* End-to-end sanity: a TCP flow crosses a single switch and completes
   at roughly line rate; the attached collector sees samples and
   produces a sane rate estimate. *)

open Testbed
module Collector = Planck_collector.Collector

let flow_completes () =
  let tb = single_switch () in
  let size = 10 * 1024 * 1024 in
  let flow = start_flow tb ~src:0 ~dst:1 ~size () in
  Engine.run ~until:(Time.ms 200) tb.engine;
  Alcotest.(check bool) "completed" true (Flow.completed flow);
  match Flow.goodput flow with
  | None -> Alcotest.fail "no goodput"
  | Some rate ->
      Alcotest.(check bool)
        (Printf.sprintf "goodput %.2f Gbps sane" (Rate.to_gbps rate))
        true
        (Rate.to_gbps rate > 5.0 && Rate.to_gbps rate <= 10.0)

let collector_estimates () =
  let tb = single_switch () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  let size = 20 * 1024 * 1024 in
  let flow = start_flow tb ~src:0 ~dst:1 ~size () in
  Engine.run ~until:(Time.ms 12) tb.engine;
  Alcotest.(check bool)
    "samples arrived" true
    (Collector.samples_seen collector > 100);
  match Collector.flow_rate collector (Flow.key flow) with
  | None -> Alcotest.fail "no rate estimate"
  | Some rate ->
      Alcotest.(check bool)
        (Printf.sprintf "estimate %.2f Gbps sane" (Rate.to_gbps rate))
        true
        (Rate.to_gbps rate > 1.0 && Rate.to_gbps rate < 11.0)

let fat_tree_flow () =
  let tb, _shape = fat_tree () in
  let size = 5 * 1024 * 1024 in
  (* Host 0 (pod 0) to host 12 (pod 3): crosses the core. *)
  let flow = start_flow tb ~src:0 ~dst:12 ~size () in
  Engine.run ~until:(Time.ms 100) tb.engine;
  Alcotest.(check bool) "completed" true (Flow.completed flow);
  Alcotest.(check int)
    "no unroutable drops" 0
    (let total = ref 0 in
     for sw = 0 to Fabric.switch_count tb.fabric - 1 do
       total := !total + Switch.unroutable_drops (Fabric.switch tb.fabric sw)
     done;
     !total);
  Alcotest.(check int)
    "no host filtered frames" 0
    (Array.fold_left
       (fun acc h -> acc + Host.filtered_frames h)
       0 (Fabric.hosts tb.fabric))

let tests =
  [
    Testbed.case "single-switch flow completes" `Quick flow_completes;
    Testbed.case "collector estimates rate" `Quick collector_estimates;
    Testbed.case "fat-tree cross-pod flow" `Quick fat_tree_flow;
  ]
