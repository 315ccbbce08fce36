(* Figure 13 (shadow-MAC alternate routes), Figure 15 (the full control
   loop on two colliding flows), and Figure 16 (ARP vs OpenFlow
   response-latency CDFs). *)

open Exp_common
module Te = Planck_controller.Te
module Reroute = Planck_controller.Reroute
module Controller = Planck_controller.Controller
module Mac = Planck_packet.Mac

let run_fig13 opts =
  section "Figure 13: shadow-MAC alternate routes (host 0 -> host 12)";
  let testbed = Testbed.create (Testbed.paper_fat_tree ~seed:opts.seed ()) in
  let routing = testbed.Testbed.routing in
  for alt = 0 to 3 do
    let mac = Routing.mac_for routing ~dst:12 ~alt in
    let hops = Routing.path routing ~src:0 ~dst_mac:mac in
    let path =
      String.concat " -> "
        (List.map (fun h -> Printf.sprintf "s%d" h.Routing.switch) hops)
    in
    Printf.printf "  %s %s: h0 -> %s -> h12\n"
      (if alt = 0 then "base route " else Printf.sprintf "alt route %d" alt)
      (Mac.to_string mac) path
  done;
  paper "four pre-installed destination-oriented spanning trees, one";
  paper "per core switch; shadow MACs select among them per packet."

(* Fig 15: flow 1 alone in steady state; flow 2 starts on a colliding
   base route; PlanckTE detects and reroutes. We report the detection
   and response timestamps plus both flows' throughput around the
   event, and whether flow 1 took any losses. *)
let run_fig15 opts =
  section "Figure 15: the control loop on two colliding flows";
  let testbed = Testbed.create (Testbed.paper_fat_tree ~seed:opts.seed ()) in
  let controller =
    Controller.create testbed.Testbed.engine ~routing:testbed.Testbed.routing
      ~link_rate:rate_10g
      ~prng:(Prng.split testbed.Testbed.prng)
      ()
  in
  let te = Controller.start_te controller () in
  let detection = ref None and response = ref None in
  List.iter
    (fun c ->
      Planck_collector.Collector.subscribe_congestion c ~threshold:0.5
        (fun e ->
          if !detection = None then
            detection := Some e.Planck_collector.Collector.time))
    (Controller.collectors controller);
  Te.on_reroute te (fun time _key ~old_mac:_ ~new_mac:_ ->
      if !response = None then response := Some time);
  let flow1 =
    Flow.start ~src:testbed.Testbed.endpoints.(0)
      ~dst:testbed.Testbed.endpoints.(8) ~src_port:1 ~dst_port:2
      ~size:(1 lsl 40) ()
  in
  Engine.run ~until:(Time.ms 20) testbed.Testbed.engine;
  detection := None;
  let retx_before = Flow.retransmits flow1 in
  let start2 = Engine.now testbed.Testbed.engine in
  let flow2 =
    Flow.start ~src:testbed.Testbed.endpoints.(1)
      ~dst:testbed.Testbed.endpoints.(9) ~src_port:3 ~dst_port:4
      ~size:(1 lsl 40) ()
  in
  (* Sample both flows' throughput every 500 us. *)
  let series = ref [] in
  let prev1 = ref (Flow.bytes_acked flow1) and prev2 = ref 0 in
  Engine.every testbed.Testbed.engine ~period:(Time.us 500)
    ~until:(start2 + Time.ms 15) (fun () ->
      let a1 = Flow.bytes_acked flow1 and a2 = Flow.bytes_acked flow2 in
      series :=
        ( Engine.now testbed.Testbed.engine - start2,
          Rate.of_bytes_per (a1 - !prev1) (Time.us 500),
          Rate.of_bytes_per (a2 - !prev2) (Time.us 500) )
        :: !series;
      prev1 := a1;
      prev2 := a2);
  Engine.run ~until:(start2 + Time.ms 16) testbed.Testbed.engine;
  Table.print ~header:[ "t-t2 (ms)"; "flow1 (Gbps)"; "flow2 (Gbps)" ]
    (List.rev_map
       (fun (t, r1, r2) ->
         [
           Printf.sprintf "%.1f" (ms t);
           Printf.sprintf "%.2f" (Rate.to_gbps r1);
           Printf.sprintf "%.2f" (Rate.to_gbps r2);
         ])
       !series);
  (match (!detection, !response) with
  | Some d, Some r ->
      note "detection %.2f ms and response %.2f ms after flow 2 started"
        (ms (d - start2)) (ms (r - start2));
      note "flow 1 retransmits during the episode: %d"
        (Flow.retransmits flow1 - retx_before)
  | _ -> note "WARNING: no detection/response observed");
  paper "detection within 25-240 us of the congesting packets plus";
  paper "notification latency; response ~2.6 ms later; flow 1 sees no";
  paper "loss because rerouting beats the buffer filling."

(* Fig 16: response latency = congestion notification -> collector sees
   a sample with the updated MAC. One measurement per reroute episode,
   repeated with fresh testbeds. *)
let response_latency ~mechanism ~seed =
  let testbed = Testbed.create (Testbed.paper_fat_tree ~seed ()) in
  let controller =
    Controller.create testbed.Testbed.engine ~routing:testbed.Testbed.routing
      ~link_rate:rate_10g
      ~prng:(Prng.split testbed.Testbed.prng)
      ()
  in
  let te =
    Controller.start_te controller
      ~config:{ Te.default_config with Te.mechanism }
      ()
  in
  let notified = ref None and seen = ref None in
  let new_mac = ref None in
  Te.on_reroute te (fun time key ~old_mac:_ ~new_mac:mac ->
      if !notified = None then begin
        notified := Some time;
        new_mac := Some (key, mac)
      end);
  (* The observation point is the rerouted flow's source edge switch:
     its monitor port carries the congested link's backlog, which is
     what dominates the paper's response latency. *)
  let observe_collector switch =
    match Controller.collector_for controller ~switch with
    | Some c ->
        Collector.set_tap c (fun ~rx ~arrival packet ->
            let s = Collector.sample c ~rx ~arrival packet in
            match (!new_mac, s.Collector.key) with
            | Some (key, mac), Some k
              when !seen = None && FK.equal k key
                   && Mac.equal (P.dst_mac s.Collector.packet) mac ->
                seen := Some s.Collector.rx
            | _ -> ())
    | None -> ()
  in
  List.iter
    (fun host ->
      observe_collector
        (fst (Fabric.host_attachment testbed.Testbed.fabric ~host)))
    [ 0; 1 ];
  ignore
    (Flow.start ~src:testbed.Testbed.endpoints.(0)
       ~dst:testbed.Testbed.endpoints.(8) ~src_port:1 ~dst_port:2
       ~size:(1 lsl 40) ());
  (* Long enough for the edge switch's monitor-port backlog to reach
     its steady depth (the paper's flows had run for seconds). *)
  Engine.run ~until:(Time.ms 80) testbed.Testbed.engine;
  ignore
    (Flow.start ~src:testbed.Testbed.endpoints.(1)
       ~dst:testbed.Testbed.endpoints.(9) ~src_port:3 ~dst_port:4
       ~size:(1 lsl 40) ());
  Engine.run ~until:(Time.ms 110) testbed.Testbed.engine;
  match (!notified, !seen) with
  | Some n, Some s -> Some (s - n)
  | _ -> None

let run_fig16 opts =
  section "Figure 16: response latency, ARP vs OpenFlow rerouting";
  let runs = max 8 (opts.runs * 4) in
  let measure mechanism =
    List.filter_map
      (fun i -> response_latency ~mechanism ~seed:(opts.seed + i))
      (List.init runs Fun.id)
  in
  let arp = List.map ms (measure Reroute.Arp) in
  let openflow = List.map ms (measure Reroute.Openflow) in
  let row label values =
    [
      label;
      string_of_int (List.length values);
      Printf.sprintf "%.2f" (Stats.percentile 10.0 values);
      Printf.sprintf "%.2f" (Stats.median values);
      Printf.sprintf "%.2f" (Stats.percentile 90.0 values);
    ]
  in
  Table.print ~header:[ "mechanism"; "n"; "p10 (ms)"; "median (ms)"; "p90 (ms)" ]
    [ row "ARP" arp; row "OpenFlow" openflow ];
  paper "ARP: ~2.5-3.5 ms; OpenFlow: ~4-9 ms, median > 7 ms. Most of";
  paper "both is the monitor-port buffering delaying the observation."

let run opts =
  run_fig13 opts;
  run_fig15 opts;
  run_fig16 opts
