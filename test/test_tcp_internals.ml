(* Focused TCP mechanism tests: RTO backoff, handshake retries, HyStart,
   CUBIC's multiplicative decrease, SACK blocks on the wire, FIN on
   completion, and a random-loss completion property. *)

open Testbed
module P = Planck_packet.Packet
module H = Planck_packet.Headers
module Mac = Planck_packet.Mac
module FK = Planck_packet.Flow_key

(* A 2-host world where we can drop packets at will: a switch whose
   route to host 1 we can remove and restore. *)
let lossy_world () =
  let tb = single_switch ~hosts:4 () in
  let sw = Fabric.switch tb.fabric 0 in
  (tb, sw)

let syn_retransmits_with_backoff () =
  let tb, sw = lossy_world () in
  (* Black-hole the path: the SYN is lost; the handshake must retry
     with the RFC 6298 initial RTO (1 s) doubling thereafter. *)
  Switch.remove_route sw (Mac.host 1);
  let flow = start_flow tb ~src:0 ~dst:1 ~size:1460 () in
  Engine.run ~until:(Time.ms 1200) tb.engine;
  Alcotest.(check bool) "not established" false (Flow.completed flow);
  Alcotest.(check int) "one timeout by 1.2s" 1 (Flow.timeouts flow);
  Engine.run ~until:(Time.ms 3400) tb.engine;
  Alcotest.(check int) "second at 1s+2s backoff" 2 (Flow.timeouts flow);
  (* Restore the route: the next retry completes the flow. *)
  Switch.add_route sw (Mac.host 1) 1;
  Engine.run ~until:(Time.s 9) tb.engine;
  Alcotest.(check bool) "completes after repair" true (Flow.completed flow)

let rto_recovers_data_blackhole () =
  let tb, sw = lossy_world () in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(2 * 1024 * 1024) () in
  (* Let it get going, then black-hole mid-flow for a while. *)
  Engine.run ~until:(Time.ms 1) tb.engine;
  Switch.remove_route sw (Mac.host 1);
  Engine.run ~until:(Time.ms 100) tb.engine;
  Switch.add_route sw (Mac.host 1) 1;
  Engine.run ~until:(Time.s 2) tb.engine;
  Alcotest.(check bool) "completed after black hole" true
    (Flow.completed flow);
  Alcotest.(check bool) "RTO fired" true (Flow.timeouts flow >= 1)

let hystart_bounds_cwnd () =
  (* A lone flow on a clean path with a huge window allowance must
     leave slow start from queue-delay feedback, far below the
     allowance (without HyStart it would blast straight to 4 MiB). *)
  let tb = single_switch () in
  let params =
    { Flow.default_params with Flow.max_flight = 4 * 1024 * 1024 }
  in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(64 * 1024 * 1024) ~params () in
  Engine.run ~until:(Time.ms 5) tb.engine;
  let cwnd = Flow.cwnd_bytes flow in
  Alcotest.(check bool)
    (Printf.sprintf "cwnd %d KB past BDP but far below max window"
       (cwnd / 1024))
    true
    (cwnd > 300_000 && cwnd < 2_000_000)

let loss_halves_window_multiplicatively () =
  (* CUBIC cuts to beta = 0.7 of the pre-loss window on fast
     retransmit. Observe via a one-off forced gap. *)
  let tb, sw = lossy_world () in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(64 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 10) tb.engine;
  let before = Flow.cwnd_bytes flow in
  (* Drop a handful of packets by black-holing briefly (shorter than
     the RTO, long enough for dupacks). *)
  Switch.remove_route sw (Mac.host 1);
  Engine.run ~until:(Time.ms 10 + Time.us 120) tb.engine;
  Switch.add_route sw (Mac.host 1) 1;
  Engine.run ~until:(Time.ms 14) tb.engine;
  let after = Flow.cwnd_bytes flow in
  Alcotest.(check bool)
    (Printf.sprintf "window cut %d -> %d KB (~0.7x)" (before / 1024)
       (after / 1024))
    true
    (Flow.timeouts flow = 0
    && after < before
    && float_of_int after > 0.5 *. float_of_int before)

let sack_blocks_on_wire_during_loss () =
  let tb, sw = lossy_world () in
  (* Tap ACKs heading back to host 0 and look for SACK options. *)
  let saw_sack = ref false in
  let host0 = Fabric.host tb.fabric 0 in
  Planck_netsim.Host.add_recv_trace host0 (fun _ p ->
      match p with
      | P.Tcp { sack; _ } -> if sack <> [] then saw_sack := true
      | P.Udp _ | P.Arp _ -> ());
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(8 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 3) tb.engine;
  Switch.remove_route sw (Mac.host 1);
  Engine.run ~until:(Time.ms 3 + Time.us 100) tb.engine;
  Switch.add_route sw (Mac.host 1) 1;
  Engine.run ~until:(Time.ms 50) tb.engine;
  Alcotest.(check bool) "flow completed" true (Flow.completed flow);
  Alcotest.(check bool) "SACK blocks observed" true !saw_sack

let fin_sent_on_completion () =
  let tb = single_switch () in
  let fins = ref 0 in
  Planck_netsim.Host.add_send_trace (Fabric.host tb.fabric 0) (fun _ p ->
      match p with
      | P.Tcp { flags; _ } -> if H.Tcp_flags.has_fin flags then incr fins
      | P.Udp _ | P.Arp _ -> ());
  let flow = start_flow tb ~src:0 ~dst:1 ~size:4096 () in
  Engine.run ~until:(Time.ms 10) tb.engine;
  Alcotest.(check bool) "completed" true (Flow.completed flow);
  Alcotest.(check int) "exactly one FIN" 1 !fins

let random_sizes_complete_qcheck =
  QCheck.Test.make ~name:"flows of random sizes complete under tiny buffers"
    ~count:8
    QCheck.(int_range 1 2_000_000)
    (fun size ->
      let config =
        {
          Switch.default_config with
          Switch.buffer_total = 120_000;
          buffer_reservation = 0;
        }
      in
      let tb = single_switch ~hosts:4 ~config ~seed:(size land 0xFFFF) () in
      (* Cross traffic makes drops likely. *)
      ignore (start_flow tb ~src:1 ~dst:2 ~size:(4 * 1024 * 1024) ());
      let flow =
        Flow.start ~src:tb.endpoints.(0) ~dst:tb.endpoints.(2) ~src_port:77
          ~dst_port:88 ~size ()
      in
      Engine.run ~until:(Time.s 3) tb.engine;
      Flow.completed flow && Flow.bytes_acked flow = size)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Testbed.case "SYN retransmits with backoff" `Quick
      syn_retransmits_with_backoff;
    Testbed.case "RTO recovers from a black hole" `Quick
      rto_recovers_data_blackhole;
    Testbed.case "HyStart bounds slow-start cwnd" `Quick
      hystart_bounds_cwnd;
    Testbed.case "loss cuts window multiplicatively" `Quick
      loss_halves_window_multiplicatively;
    Testbed.case "SACK blocks on the wire" `Quick
      sack_blocks_on_wire_during_loss;
    Testbed.case "FIN sent on completion" `Quick fin_sent_on_completion;
    qtest random_sizes_complete_qcheck;
  ]
