(* Cross-cutting invariants: jitter cannot reorder a port's packets,
   the buffer pool charges each port exactly what its egress holds,
   collector state stays bounded, event cooldown is respected. *)

open Testbed
module Collector = Planck_collector.Collector
module P = Planck_packet.Packet
module H = Planck_packet.Headers
module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr

let pipeline_jitter_preserves_order () =
  (* Back-to-back line-rate arrivals on one ingress port must forward
     in order despite the randomized pipeline latency. *)
  let e = Engine.create () in
  let sw =
    Switch.create e ~name:"jitter" ~ports:2 ~config:Switch.default_config ()
  in
  let seen = ref [] in
  Switch.connect sw ~port:1 ~rate:rate_10g ~prop_delay:0
    ~deliver:(fun p ->
      match p with
      | P.Tcp { seq; _ } -> seen := seq :: !seen
      | P.Udp _ | P.Arp _ -> ())
    ();
  Switch.connect sw ~port:0 ~rate:rate_10g ~prop_delay:0
    ~deliver:(fun _ -> ())
    ();
  Switch.add_route sw (Mac.host 1) 1;
  (* Arrivals at exactly the 1514-byte line-rate spacing. *)
  for i = 0 to 499 do
    Engine.schedule e ~delay:(i * 1212) (fun () ->
        Switch.ingress sw ~port:0
          (P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1)
             ~src_ip:(Ip.host 0) ~dst_ip:(Ip.host 1) ~src_port:1 ~dst_port:2
             ~seq:(i * 1460) ~ack_seq:0 ~flags:H.Tcp_flags.ack
             ~payload_len:1460 ()))
  done;
  Engine.run e;
  let order = List.rev !seen in
  Alcotest.(check int) "all forwarded" 500 (List.length order);
  Alcotest.(check bool) "strictly increasing" true
    (List.for_all2 ( = ) order (List.sort compare order))

let vantage_ring_bounded () =
  let tb = single_switch ~hosts:4 () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  Collector.capture collector ~capacity:64;
  ignore (start_flow tb ~src:0 ~dst:1 ~size:(4 * 1024 * 1024) ());
  Engine.run ~until:(Time.ms 10) tb.engine;
  Alcotest.(check int) "ring holds exactly its capacity" 64
    (Collector.vantage_count collector);
  Alcotest.(check bool) "saw far more samples than retained" true
    (Collector.samples_seen collector > 1000)

(* How many of the frames a collector sampled are still reachable once
   the run is over: a tap holds each one weakly, and a full major
   collection clears every frame nothing else keeps alive. *)
let sampled_frames_retained ?capacity () =
  let tb = single_switch ~hosts:4 () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  Option.iter (fun capacity -> Collector.capture collector ~capacity) capacity;
  let chunk = 1024 in
  let frames = ref [] and n = ref 0 in
  Collector.set_tap collector (fun ~rx:_ ~arrival:_ packet ->
      if !n mod chunk = 0 then frames := Weak.create chunk :: !frames;
      Weak.set (List.hd !frames) (!n mod chunk) (Some packet);
      incr n);
  ignore (start_flow tb ~src:0 ~dst:1 ~size:(4 * 1024 * 1024) ());
  Engine.run ~until:(Time.ms 50) tb.engine;
  Gc.full_major ();
  let alive = ref 0 in
  List.iter
    (fun w ->
      for i = 0 to Weak.length w - 1 do
        if Weak.check w i then incr alive
      done)
    !frames;
  Alcotest.(check int) "tap saw every sample" (Collector.samples_seen collector)
    !n;
  Alcotest.(check bool) "saw far more samples than any ring keeps" true
    (!n > 1000);
  (* Reading the ring after the collection keeps the collector alive
     through it, so the frames its ring holds count as reachable. *)
  (!alive, Collector.vantage_count collector)

let sampled_frames_not_retained () =
  let alive, kept = sampled_frames_retained () in
  Alcotest.(check int) "ring empty without capture" 0 kept;
  Alcotest.(check int) "no sampled frame reachable" 0 alive;
  let alive, kept = sampled_frames_retained ~capacity:64 () in
  Alcotest.(check int) "ring holds its capacity" 64 kept;
  Alcotest.(check int) "exactly the captured frames reachable" 64 alive

let event_cooldown_respected () =
  let tb = single_switch ~hosts:4 () in
  let config =
    { Collector.default_config with Collector.event_cooldown = Time.ms 2 }
  in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ~config ()
  in
  Collector.attach collector;
  let stamps = ref [] in
  Collector.subscribe_congestion collector ~threshold:0.3 (fun e ->
      stamps := e.Collector.time :: !stamps);
  ignore (start_flow tb ~src:0 ~dst:2 ~size:(30 * 1024 * 1024) ());
  ignore (start_flow tb ~src:1 ~dst:2 ~size:(30 * 1024 * 1024) ());
  Engine.run ~until:(Time.ms 25) tb.engine;
  let sorted = List.sort compare !stamps in
  let rec gaps_ok = function
    | a :: (b :: _ as rest) -> b - a >= Time.ms 2 && gaps_ok rest
    | _ -> true
  in
  Alcotest.(check bool) "several events" true (List.length sorted >= 3);
  Alcotest.(check bool) "spaced by cooldown" true (gaps_ok sorted)

let utilization_decays_after_flows_end () =
  let tb = single_switch ~hosts:4 () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(4 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 6) tb.engine;
  Alcotest.(check bool) "busy while running" true
    (Rate.to_gbps (Collector.link_utilization collector ~port:1) > 3.0);
  Engine.run ~until:(Time.ms 40) tb.engine;
  Alcotest.(check bool) "flow finished" true (Flow.completed flow);
  Alcotest.(check (float 0.01)) "idle after timeout" 0.0
    (Rate.to_gbps (Collector.link_utilization collector ~port:1))

(* A congested single switch: a line-rate burst of [frames] full-size
   frames enters port 0 and leaves through port 1 at [egress] into a
   64 KiB shared buffer, so admission soon starts refusing. With
   [mirror], port 1's traffic is also copied to monitor port 2, which
   drains at the same rate. *)
let congested_switch ~frames ~egress ~mirror =
  let e = Engine.create () in
  let config =
    { Switch.default_config with Switch.buffer_total = 64 * 1024 }
  in
  let sw =
    Switch.create e ~name:"pool" ~ports:(if mirror then 3 else 2) ~config ()
  in
  Switch.connect sw ~port:1 ~rate:egress ~prop_delay:0
    ~deliver:(fun _ -> ())
    ();
  Switch.connect sw ~port:0 ~rate:rate_10g ~prop_delay:0
    ~deliver:(fun _ -> ())
    ();
  if mirror then begin
    Switch.connect sw ~port:2 ~rate:egress ~prop_delay:0
      ~deliver:(fun _ -> ())
      ();
    Switch.set_mirror sw ~monitor:2 ~mirrored:[ 1 ]
  end;
  Switch.add_route sw (Mac.host 1) 1;
  for i = 0 to frames - 1 do
    Engine.schedule e ~delay:(i * 1212) (fun () ->
        Switch.ingress sw ~port:0
          (P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1)
             ~src_ip:(Ip.host 0) ~dst_ip:(Ip.host 1) ~src_port:1 ~dst_port:2
             ~seq:(i * 1460) ~ack_seq:0 ~flags:H.Tcp_flags.ack
             ~payload_len:1460 ()))
  done;
  (e, sw)

let buffer_pool_balances_after_drain () =
  (* Every byte try_alloc admits is held by exactly one egress, queued
     or on the serializer, until its departure releases it.
     Switch.check_buffer compares the two on every port: once
     mid-burst, with the queue standing, and once after the drain,
     when the pool must be back at zero although admission refused
     plenty. *)
  let e, sw =
    congested_switch ~frames:500 ~egress:(Rate.mbps 100.0) ~mirror:false
  in
  Alcotest.(check int) "pool starts empty" 0 (Switch.buffer_used sw);
  Engine.run ~until:(Time.us 300) e;
  Alcotest.(check bool) "the queue stands mid-burst" true
    (Switch.queue_bytes sw ~port:1 > 0);
  check_buffers [ sw ];
  Engine.run e;
  Alcotest.(check bool) "the run was actually congested" true
    (Switch.total_data_drops sw > 0);
  check_buffers [ sw ];
  Alcotest.(check int) "every admitted byte returned to the pool" 0
    (Switch.buffer_used sw)

let buffer_balances_qcheck =
  QCheck.Test.make ~name:"buffer pool matches the egress queues throughout"
    ~count:40
    QCheck.(triple (int_range 1 600) (int_range 10 10_000) bool)
    (fun (frames, egress_mbps, mirror) ->
      let e, sw =
        congested_switch ~frames
          ~egress:(Rate.mbps (float_of_int egress_mbps))
          ~mirror
      in
      let balanced () =
        match Switch.check_buffer sw with
        | Ok () -> true
        | Error msg -> QCheck.Test.fail_report msg
      in
      (* every 50 us across the 600-frame burst's 727 us, then drained *)
      List.for_all
        (fun i ->
          Engine.run ~until:(Time.us (50 * i)) e;
          balanced ())
        (List.init 16 succ)
      && (Engine.run e;
          balanced () && Switch.buffer_used sw = 0))

let tests =
  [
    Testbed.case "jitter preserves per-port order" `Quick
      pipeline_jitter_preserves_order;
    Testbed.case "buffer pool balances after drain" `Quick
      buffer_pool_balances_after_drain;
    Testbed.case "vantage ring bounded" `Quick vantage_ring_bounded;
    Testbed.case "sampled frames not retained" `Quick
      sampled_frames_not_retained;
    Testbed.case "event cooldown respected" `Quick
      event_cooldown_respected;
    Testbed.case "utilization decays after flows end" `Quick
      utilization_decays_after_flows_end;
    QCheck_alcotest.to_alcotest buffer_balances_qcheck;
  ]
