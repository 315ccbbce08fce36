(* OpenFlow substrate tests: control-channel latency model, flow
   counters, and the stats-poll staleness that motivates Planck. *)

open Testbed
module Control_channel = Planck_openflow.Control_channel
module Flow_stats = Planck_openflow.Flow_stats
module Actions = Planck_openflow.Actions
module Prng = Planck_util.Prng

let channel_latency_bounds () =
  let e = Engine.create () in
  let ch = Control_channel.create e ~prng:(Prng.create ~seed:1) () in
  let cfg = Control_channel.config ch in
  let deliveries = ref [] in
  for _ = 1 to 50 do
    let sent = Engine.now e in
    Control_channel.send ch (fun () ->
        deliveries := (Engine.now e - sent) :: !deliveries)
  done;
  Engine.run e;
  List.iter
    (fun d ->
      Alcotest.(check bool) "within band" true
        (d >= cfg.Control_channel.one_way_min
        && d <= cfg.Control_channel.one_way_max + Time.us 1))
    !deliveries

let channel_preserves_order () =
  let e = Engine.create () in
  let ch = Control_channel.create e ~prng:(Prng.create ~seed:2) () in
  let log = ref [] in
  for i = 1 to 20 do
    Control_channel.send ch (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO" (List.init 20 (fun i -> i + 1))
    (List.rev !log)

let rule_install_slower_than_message () =
  let e = Engine.create () in
  let ch = Control_channel.create e ~prng:(Prng.create ~seed:3) () in
  let message_at = ref 0 and rule_at = ref 0 in
  Control_channel.send ch (fun () -> message_at := Engine.now e);
  Control_channel.install_rule ch (fun () -> rule_at := Engine.now e);
  Engine.run e;
  Alcotest.(check bool) "TCAM install is milliseconds" true
    (!rule_at > !message_at + Time.ms 2)

let flow_counters_count () =
  let tb = single_switch () in
  let stats = Flow_stats.attach (Fabric.switch tb.fabric 0) in
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(1024 * 1024) () in
  Engine.run ~until:(Time.ms 10) tb.engine;
  let counters = Flow_stats.snapshot stats in
  (* Data flow + its ACK stream. *)
  Alcotest.(check bool) "two flows counted" true
    (Flow_stats.flow_count stats >= 2);
  let data =
    List.find
      (fun c -> Planck_packet.Flow_key.equal c.Flow_stats.key (Flow.key flow))
      counters
  in
  (* 1 MiB of payload => ~1.04 MiB on the wire, plus handshake. *)
  Alcotest.(check bool) "bytes plausible" true
    (data.Flow_stats.bytes > 1024 * 1024
    && data.Flow_stats.bytes < 1150 * 1024);
  Alcotest.(check bool) "packets plausible" true
    (data.Flow_stats.packets >= 719 && data.Flow_stats.packets <= 730)

let poll_pays_latency () =
  let tb = single_switch () in
  let ch = Control_channel.create tb.engine ~prng:(Prng.create ~seed:4) () in
  let stats = Flow_stats.attach (Fabric.switch tb.fabric 0) in
  ignore (start_flow tb ~src:0 ~dst:1 ~size:(50 * 1024 * 1024) ());
  let asked_at = ref 0 and answered_at = ref 0 in
  Engine.schedule tb.engine ~delay:(Time.ms 5) (fun () ->
      asked_at := Engine.now tb.engine;
      Flow_stats.poll stats ~channel:ch (fun _counters ->
          answered_at := Engine.now tb.engine));
  Engine.run ~until:(Time.ms 60) tb.engine;
  let latency = !answered_at - !asked_at in
  Alcotest.(check bool)
    (Printf.sprintf "poll took %s" (Time.to_string latency))
    true
    (latency >= Time.ms 25 && latency <= Time.ms 30)

let packet_out_delivers () =
  let tb = single_switch () in
  let ch = Control_channel.create tb.engine ~prng:(Prng.create ~seed:5) () in
  let host = Fabric.host tb.fabric 2 in
  let shadow = Planck_packet.Mac.shadow (Planck_packet.Mac.host 3) ~alt:1 in
  Actions.spoof_arp ch (Fabric.switch tb.fabric 0) ~port:2 ~target:host
    ~pretend_ip:(Host.ip (Fabric.host tb.fabric 3))
    ~pretend_mac:shadow;
  Engine.run ~until:(Time.ms 2) tb.engine;
  Alcotest.(check bool) "target learned the shadow MAC" true
    (Host.arp_lookup host (Host.ip (Fabric.host tb.fabric 3)) = Some shadow)

let tests =
  [
    Testbed.case "channel latency bounds" `Quick channel_latency_bounds;
    Testbed.case "channel preserves order" `Quick channel_preserves_order;
    Testbed.case "rule install slower than message" `Quick
      rule_install_slower_than_message;
    Testbed.case "flow counters count wire bytes" `Quick
      flow_counters_count;
    Testbed.case "stats poll pays read latency" `Quick poll_pays_latency;
    Testbed.case "spoofed ARP packet-out" `Quick packet_out_delivers;
  ]
