(* TCP behaviour tests: handshake, bulk transfer, loss recovery (SACK),
   RTO, sequence wraparound, and ARP-driven rerouting of a live flow. *)

open Testbed
module P = Planck_packet.Packet
module H = Planck_packet.Headers
module Mac = Planck_packet.Mac
module FK = Planck_packet.Flow_key

let small_flow_completes () =
  let tb = single_switch () in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:1460 () in
  Engine.run ~until:(Time.ms 5) tb.engine;
  Alcotest.(check bool) "one-segment flow" true (Flow.completed flow);
  Alcotest.(check int) "no retransmits" 0 (Flow.retransmits flow)

let odd_sizes_complete () =
  let tb = single_switch () in
  let flows =
    List.map
      (fun (i, size) -> start_flow tb ~src:0 ~dst:(1 + (i mod 3)) ~size ())
      [ (0, 1); (1, 1461); (2, 123_457) ]
  in
  Engine.run ~until:(Time.ms 20) tb.engine;
  List.iter
    (fun f -> Alcotest.(check bool) "odd size completes" true (Flow.completed f))
    flows

let handshake_adds_rtt () =
  let tb = single_switch () in
  let with_hs =
    Flow.start ~src:tb.endpoints.(0) ~dst:tb.endpoints.(1) ~src_port:1
      ~dst_port:2 ~size:1460 ()
  in
  let without_hs =
    Flow.start ~src:tb.endpoints.(2) ~dst:tb.endpoints.(3) ~src_port:3
      ~dst_port:4 ~size:1460
      ~params:{ Flow.default_params with Flow.handshake = false }
      ()
  in
  Engine.run ~until:(Time.ms 5) tb.engine;
  let d1 = Option.get (Flow.completed_at with_hs) - Flow.started_at with_hs in
  let d2 =
    Option.get (Flow.completed_at without_hs) - Flow.started_at without_hs
  in
  Alcotest.(check bool)
    (Printf.sprintf "handshake costs an RTT (%s vs %s)" (Time.to_string d1)
       (Time.to_string d2))
    true
    (d1 > d2 + Time.us 100)

let goodput_near_line_rate () =
  let tb = single_switch () in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(30 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 100) tb.engine;
  match Flow.goodput flow with
  | None -> Alcotest.fail "incomplete"
  | Some rate ->
      Alcotest.(check bool)
        (Printf.sprintf "%.2f Gbps" (Rate.to_gbps rate))
        true
        (Rate.to_gbps rate > 8.0)

let two_flows_share_fairly () =
  (* Two senders into one receiver port: each should get just under half
     of the 10 Gbps, with neither starving (paper Fig 15 regime). *)
  let tb = single_switch () in
  let size = 20 * 1024 * 1024 in
  let f1 = start_flow tb ~src:0 ~dst:2 ~size () in
  let f2 = start_flow tb ~src:1 ~dst:2 ~size () in
  Engine.run ~until:(Time.ms 200) tb.engine;
  let g f = Rate.to_gbps (Option.get (Flow.goodput f)) in
  Alcotest.(check bool) "both complete" true
    (Flow.completed f1 && Flow.completed f2);
  Alcotest.(check bool)
    (Printf.sprintf "fair-ish split %.2f / %.2f" (g f1) (g f2))
    true
    (g f1 > 3.0 && g f2 > 3.0 && g f1 +. g f2 < 11.5)

let recovers_from_loss () =
  (* Tiny switch buffer forces drops during slow start; SACK recovery
     must finish the flow without collapsing. *)
  let config =
    {
      Switch.default_config with
      Switch.buffer_total = 150_000;
      buffer_reservation = 0;
    }
  in
  let tb = single_switch ~config () in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(10 * 1024 * 1024) () in
  Engine.run ~until:(Time.s 2) tb.engine;
  Alcotest.(check bool) "completed despite drops" true (Flow.completed flow);
  Alcotest.(check bool) "losses actually happened" true
    (Flow.retransmits flow > 0
    || Switch.total_data_drops (Fabric.switch tb.fabric 0) = 0)

let sequence_wraparound () =
  (* Start the sequence space just below 2^32 so a modest flow crosses
     the wrap; on-wire sequence numbers are 32-bit. *)
  let tb = single_switch () in
  let size = 20 * 1024 * 1024 in
  let isn = (1 lsl 32) - (4 * 1024 * 1024) in
  let flow =
    start_flow tb ~src:0 ~dst:1 ~size
      ~params:{ Flow.default_params with Flow.isn }
      ()
  in
  Engine.run ~until:(Time.ms 100) tb.engine;
  Alcotest.(check bool) "flow completes across seq wrap" true
    (Flow.completed flow);
  Alcotest.(check int) "all bytes acked" size (Flow.bytes_acked flow)

let reroute_via_arp_mid_flow () =
  (* Change the sender's ARP entry to a shadow MAC mid-flow; with the
     shadow route installed and the rewrite rule present, the flow must
     keep going and finish. *)
  let tb = single_switch () in
  let sw = Fabric.switch tb.fabric 0 in
  let shadow = Mac.shadow (Mac.host 1) ~alt:1 in
  Switch.add_route sw shadow 1;
  Switch.add_rewrite sw ~from_mac:shadow ~to_mac:(Mac.host 1);
  let size = 20 * 1024 * 1024 in
  let flow = start_flow tb ~src:0 ~dst:1 ~size () in
  let seen_shadow = ref 0 in
  Switch.add_forward_tap sw (fun ~in_port:_ ~out_port:_ p ->
      if Mac.equal (P.dst_mac p) shadow then incr seen_shadow);
  Engine.schedule tb.engine ~delay:(Time.ms 5) (fun () ->
      Host.arp_set (Fabric.host tb.fabric 0) (Host.ip (Fabric.host tb.fabric 1))
        shadow);
  Engine.run ~until:(Time.ms 100) tb.engine;
  Alcotest.(check bool) "completes across reroute" true (Flow.completed flow);
  Alcotest.(check bool) "shadow route used" true (!seen_shadow > 1000)

let flow_rejects_bad_args () =
  let tb = single_switch () in
  Alcotest.check_raises "size 0" (Invalid_argument "x") (fun () ->
      try ignore (start_flow tb ~src:0 ~dst:1 ~size:0 ())
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let endpoint_unclaimed () =
  let tb = single_switch () in
  (* A stray segment addressed at an endpoint with no registered flow. *)
  let stray =
    P.tcp
      ~src_mac:(Host.mac (Fabric.host tb.fabric 0))
      ~dst_mac:(Host.mac (Fabric.host tb.fabric 1))
      ~src_ip:(Host.ip (Fabric.host tb.fabric 0))
      ~dst_ip:(Host.ip (Fabric.host tb.fabric 1))
      ~src_port:999 ~dst_port:999 ~seq:0 ~ack_seq:0 ~flags:H.Tcp_flags.ack
      ~payload_len:100 ()
  in
  Host.send (Fabric.host tb.fabric 0) stray;
  Engine.run ~until:(Time.ms 1) tb.engine;
  Alcotest.(check int) "unclaimed counted" 1
    (Endpoint.unclaimed tb.endpoints.(1))

let concurrent_flows_one_pair () =
  (* Several flows between the same host pair must be demultiplexed
     independently. *)
  let tb = single_switch () in
  let flows =
    List.init 4 (fun i ->
        Flow.start ~src:tb.endpoints.(0) ~dst:tb.endpoints.(1)
          ~src_port:(100 + i) ~dst_port:(200 + i) ~size:(1024 * 1024) ())
  in
  Engine.run ~until:(Time.ms 50) tb.engine;
  List.iter
    (fun f -> Alcotest.(check bool) "each completes" true (Flow.completed f))
    flows

let tests =
  [
    Testbed.case "one-segment flow" `Quick small_flow_completes;
    Testbed.case "odd sizes complete" `Quick odd_sizes_complete;
    Testbed.case "handshake costs an RTT" `Quick handshake_adds_rtt;
    Testbed.case "goodput near line rate" `Quick goodput_near_line_rate;
    Testbed.case "two flows share a link fairly" `Quick
      two_flows_share_fairly;
    Testbed.case "SACK recovery under loss" `Quick recovers_from_loss;
    Testbed.case "seq wraparound mid-flow" `Quick sequence_wraparound;
    Testbed.case "ARP reroute mid-flow" `Quick reroute_via_arp_mid_flow;
    Testbed.case "rejects bad sizes" `Quick flow_rejects_bad_args;
    Testbed.case "unclaimed segments counted" `Quick endpoint_unclaimed;
    Testbed.case "concurrent flows between one pair" `Quick
      concurrent_flows_one_pair;
  ]
