(* Controller tests: the network view, both reroute mechanisms, the TE
   application's greedy decisions, and the end-to-end control loop. *)

open Testbed
module NV = Planck_controller.Net_view
module Reroute = Planck_controller.Reroute
module Te = Planck_controller.Te
module Controller = Planck_controller.Controller
module Control_channel = Planck_openflow.Control_channel
module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr
module FK = Planck_packet.Flow_key

let key ~src ~dst =
  {
    FK.src_ip = Ip.host src;
    dst_ip = Ip.host dst;
    src_port = 10_000 + src;
    dst_port = 5_000 + dst;
    protocol = 6;
  }

(* ---- Net_view ---- *)

let view_observe_expire () =
  let tb, _shape = fat_tree () in
  let view = NV.create tb.routing ~flow_timeout:(Time.ms 3) in
  let _flow =
    NV.observe view ~now:0 ~key:(key ~src:0 ~dst:8) ~rate:(Rate.gbps 5.0)
      ~dst_mac:(Mac.host 8)
  in
  Alcotest.(check int) "one flow" 1 (NV.size view);
  NV.expire view ~now:(Time.ms 2);
  Alcotest.(check int) "still live" 1 (NV.size view);
  NV.expire view ~now:(Time.ms 4);
  Alcotest.(check int) "expired" 0 (NV.size view)

let view_bottleneck () =
  let tb, _shape = fat_tree () in
  let view = NV.create tb.routing ~flow_timeout:(Time.ms 30) in
  (* Flows 0->8 and 1->9 on their base routes share the edge uplink. *)
  let f0 =
    NV.observe view ~now:0 ~key:(key ~src:0 ~dst:8) ~rate:(Rate.gbps 4.0)
      ~dst_mac:(Planck_topology.Routing.mac_for tb.routing ~dst:8 ~alt:0)
  in
  let f1 =
    NV.observe view ~now:0 ~key:(key ~src:1 ~dst:9) ~rate:(Rate.gbps 4.0)
      ~dst_mac:(Planck_topology.Routing.mac_for tb.routing ~dst:9 ~alt:0)
  in
  let links = NV.path_links view f0 in
  Alcotest.(check bool) "path has hops" true (List.length links = 5);
  (* Bottleneck for f0 excluding itself: f1's 4G loads shared links. *)
  let b = NV.bottleneck view ~capacity:rate_10g ~exclude:f0 ~links in
  Alcotest.(check (float 0.2)) "bottleneck 6G" 6.0 (Rate.to_gbps b);
  (* Excluding f1 too would be 10G — check by removing it. *)
  let b1 = NV.bottleneck view ~capacity:rate_10g ~exclude:f1 ~links:(NV.path_links view f1) in
  Alcotest.(check (float 0.2)) "symmetric" 6.0 (Rate.to_gbps b1)

let view_commanded_mac_is_sticky () =
  let tb, _shape = fat_tree () in
  let view = NV.create tb.routing ~flow_timeout:(Time.ms 30) in
  let base = Planck_topology.Routing.mac_for tb.routing ~dst:8 ~alt:0 in
  let alt2 = Planck_topology.Routing.mac_for tb.routing ~dst:8 ~alt:2 in
  let flow =
    NV.observe view ~now:0 ~key:(key ~src:0 ~dst:8) ~rate:(Rate.gbps 4.0)
      ~dst_mac:base
  in
  NV.set_route view flow alt2;
  (* A stale annotation must not roll the route back. *)
  let flow' =
    NV.observe view ~now:(Time.ms 1) ~key:(key ~src:0 ~dst:8)
      ~rate:(Rate.gbps 4.0) ~dst_mac:base
  in
  Alcotest.(check bool) "commanded route kept" true
    (Mac.equal flow'.NV.dst_mac alt2)

(* ---- Reroute mechanisms ---- *)

let arp_reroute_changes_host_cache () =
  let tb, _shape = fat_tree () in
  let channel =
    Control_channel.create tb.engine ~prng:(Planck_util.Prng.create ~seed:2) ()
  in
  let shadow = Planck_topology.Routing.mac_for tb.routing ~dst:8 ~alt:2 in
  Reroute.apply Reroute.Arp ~channel ~routing:tb.routing ~key:(key ~src:0 ~dst:8)
    ~new_mac:shadow;
  Engine.run ~until:(Time.ms 2) tb.engine;
  Alcotest.(check bool) "host 0 cache updated" true
    (Host.arp_lookup (Fabric.host tb.fabric 0) (Ip.host 8) = Some shadow)

let openflow_reroute_installs_rule () =
  let tb, _shape = fat_tree () in
  let channel =
    Control_channel.create tb.engine ~prng:(Planck_util.Prng.create ~seed:2) ()
  in
  let shadow = Planck_topology.Routing.mac_for tb.routing ~dst:8 ~alt:1 in
  let k = key ~src:0 ~dst:8 in
  Reroute.apply Reroute.Openflow ~channel ~routing:tb.routing ~key:k
    ~new_mac:shadow;
  let edge, _ = Fabric.host_attachment tb.fabric ~host:0 in
  (* Not installed instantly: TCAM latency. *)
  Engine.run ~until:(Time.us 500) tb.engine;
  Alcotest.(check int) "not yet installed" 0
    (Switch.flow_rewrite_count (Fabric.switch tb.fabric edge));
  Engine.run ~until:(Time.ms 10) tb.engine;
  Alcotest.(check int) "installed after TCAM latency" 1
    (Switch.flow_rewrite_count (Fabric.switch tb.fabric edge))

(* ---- TE end-to-end ---- *)

let te_resolves_stride_collision () =
  let tb, _shape = fat_tree () in
  let controller =
    Controller.create tb.engine ~routing:tb.routing ~link_rate:rate_10g
      ~prng:(Planck_util.Prng.create ~seed:3) ()
  in
  let te = Controller.start_te controller () in
  (* Two flows whose base routes collide on the edge uplink. *)
  let f0 = start_flow tb ~src:0 ~dst:8 ~size:(50 * 1024 * 1024) () in
  let f1 = start_flow tb ~src:1 ~dst:9 ~size:(50 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 120) tb.engine;
  Alcotest.(check bool) "rerouted at least once" true (Te.reroutes te >= 1);
  Alcotest.(check bool) "notifications arrived" true (Te.notifications te > 0);
  Alcotest.(check bool) "both complete" true
    (Flow.completed f0 && Flow.completed f1);
  let g f = Rate.to_gbps (Option.get (Flow.goodput f)) in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate beats fair share: %.1f + %.1f" (g f0) (g f1))
    true
    (g f0 +. g f1 > 11.0)

let te_leaves_uncongested_alone () =
  let tb, _shape = fat_tree () in
  let controller =
    Controller.create tb.engine ~routing:tb.routing ~link_rate:rate_10g
      ~prng:(Planck_util.Prng.create ~seed:3) ()
  in
  let te = Controller.start_te controller () in
  (* Disjoint flows: no reroutes should occur. *)
  let f0 = start_flow tb ~src:0 ~dst:8 ~size:(10 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 50) tb.engine;
  Alcotest.(check bool) "flow completes" true (Flow.completed f0);
  Alcotest.(check int) "no reroutes" 0 (Te.reroutes te)

let controller_stats_queries () =
  let tb, _shape = fat_tree () in
  let controller =
    Controller.create tb.engine ~routing:tb.routing ~link_rate:rate_10g
      ~prng:(Planck_util.Prng.create ~seed:3) ()
  in
  Alcotest.(check int) "one collector per switch" 20
    (List.length (Controller.collectors controller));
  let flow = start_flow tb ~src:0 ~dst:8 ~size:(10 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 20) tb.engine;
  Alcotest.(check bool) "flow rate known somewhere" true
    (Controller.flow_rate controller (Flow.key flow) <> None);
  let edge, port = Fabric.host_attachment tb.fabric ~host:8 in
  Alcotest.(check bool) "edge link utilization seen" true
    (Rate.to_gbps (Controller.link_utilization controller ~switch:edge ~port)
    > 1.0)

let tests =
  [
    Testbed.case "view observe and expire" `Quick view_observe_expire;
    Testbed.case "view bottleneck computation" `Quick view_bottleneck;
    Testbed.case "commanded route is sticky" `Quick
      view_commanded_mac_is_sticky;
    Testbed.case "ARP reroute updates host cache" `Quick
      arp_reroute_changes_host_cache;
    Testbed.case "OpenFlow reroute installs rule" `Quick
      openflow_reroute_installs_rule;
    Testbed.case "TE resolves a stride collision" `Quick
      te_resolves_stride_collision;
    Testbed.case "TE leaves clean traffic alone" `Quick
      te_leaves_uncongested_alone;
    Testbed.case "controller statistics queries" `Quick
      controller_stats_queries;
  ]
