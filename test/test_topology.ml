(* Topology and routing tests: fat-tree wiring, spanning-tree validity,
   shadow-MAC provisioning, path computation, Jellyfish construction. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Engine = Planck_netsim.Engine
module Switch = Planck_netsim.Switch
module Fabric = Planck_topology.Fabric
module Fat_tree = Planck_topology.Fat_tree
module Single_switch = Planck_topology.Single_switch
module Jellyfish = Planck_topology.Jellyfish
module Routing = Planck_topology.Routing
module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr
module Host = Planck_netsim.Host
module P = Planck_packet.Packet
module H = Planck_packet.Headers

let build_ft k =
  let engine = Engine.create () in
  Fat_tree.build engine ~k ~switch_config:Switch.default_config
    ~link_rate:(Rate.gbps 10.0) ~prng:(Prng.create ~seed:1) ()

let shape_counts () =
  let s = Fat_tree.shape ~k:4 in
  Alcotest.(check int) "switches" 20 s.Fat_tree.num_switches;
  Alcotest.(check int) "hosts" 16 s.Fat_tree.num_hosts;
  Alcotest.(check int) "cores" 4 s.Fat_tree.cores;
  let s6 = Fat_tree.shape ~k:6 in
  Alcotest.(check int) "k=6 switches" 45 s6.Fat_tree.num_switches;
  Alcotest.(check int) "k=6 hosts" 54 s6.Fat_tree.num_hosts

let shape_rejects_odd () =
  Alcotest.check_raises "odd k" (Invalid_argument "x") (fun () ->
      try ignore (Fat_tree.shape ~k:3)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let wiring_complete () =
  let fabric, s = build_ft 4 in
  (* Every switch: k data ports wired + 1 monitor reserved. *)
  for sw = 0 to s.Fat_tree.num_switches - 1 do
    Alcotest.(check int)
      (Printf.sprintf "switch %d data ports" sw)
      4
      (List.length (Fabric.data_ports fabric ~switch:sw));
    Alcotest.(check (option int))
      (Printf.sprintf "switch %d monitor" sw)
      (Some 4)
      (Fabric.monitor_port fabric ~switch:sw)
  done;
  (* Adjacency is symmetric. *)
  for sw = 0 to s.Fat_tree.num_switches - 1 do
    List.iter
      (fun port ->
        match Fabric.peer fabric ~switch:sw ~port with
        | Fabric.To_switch (peer, peer_port) -> (
            match Fabric.peer fabric ~switch:peer ~port:peer_port with
            | Fabric.To_switch (back, back_port) ->
                Alcotest.(check (pair int int))
                  "symmetric" (sw, port) (back, back_port)
            | _ -> Alcotest.fail "asymmetric adjacency")
        | Fabric.To_host h ->
            let attach_sw, attach_port = Fabric.host_attachment fabric ~host:h in
            Alcotest.(check (pair int int))
              "host attach" (sw, port) (attach_sw, attach_port)
        | Fabric.To_monitor | Fabric.Unwired -> ())
      (Fabric.data_ports fabric ~switch:sw)
  done

let hosts_contiguous_in_pods () =
  let s = Fat_tree.shape ~k:4 in
  Alcotest.(check int) "first of pod 2" 2 (Fat_tree.pod_of_host s 8);
  Alcotest.(check int) "host layout" 10
    (Fat_tree.host_of s ~pod:2 ~edge:1 ~slot:0)

let routing_for fabric s =
  let routing =
    Routing.create fabric ~alts:(Fat_tree.max_alts s)
      ~out_port:(Fat_tree.out_port s)
  in
  Routing.install routing;
  routing

let paths_valid_all_pairs () =
  let fabric, s = build_ft 4 in
  let routing = routing_for fabric s in
  (* Every (src, dst, alt) path must terminate at the destination and
     never exceed 5 switch hops (edge-agg-core-agg-edge). *)
  for src = 0 to 15 do
    for dst = 0 to 15 do
      if src <> dst then
        for alt = 0 to 3 do
          let mac = Routing.mac_for routing ~dst ~alt in
          let hops = Routing.path routing ~src ~dst_mac:mac in
          Alcotest.(check bool)
            (Printf.sprintf "%d->%d alt %d length" src dst alt)
            true
            (List.length hops >= 1 && List.length hops <= 5)
        done
    done
  done

let cross_pod_uses_expected_core () =
  let fabric, s = build_ft 4 in
  let routing = routing_for fabric s in
  let mac = Routing.mac_for routing ~dst:12 ~alt:0 in
  let hops = Routing.path routing ~src:0 ~dst_mac:mac in
  Alcotest.(check int) "5 hops across core" 5 (List.length hops);
  let middle = List.nth hops 2 in
  Alcotest.(check int) "core id is (12+0) mod 4"
    (Fat_tree.core_id s (Fat_tree.core_for s ~dst:12 ~alt:0))
    middle.Routing.switch

let same_edge_path_is_one_hop () =
  let fabric, s = build_ft 4 in
  let routing = routing_for fabric s in
  let mac = Routing.mac_for routing ~dst:1 ~alt:0 in
  Alcotest.(check int) "1 hop" 1
    (List.length (Routing.path routing ~src:0 ~dst_mac:mac))

let alternates_are_core_disjoint () =
  let fabric, s = build_ft 4 in
  let routing = routing_for fabric s in
  (* For a cross-pod pair, the four alternates traverse four distinct
     cores — the "each core defines a unique spanning tree" property. *)
  let cores =
    List.map
      (fun alt ->
        let mac = Routing.mac_for routing ~dst:12 ~alt in
        let hops = Routing.path routing ~src:0 ~dst_mac:mac in
        (List.nth hops 2).Routing.switch)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "4 distinct cores" 4
    (List.length (List.sort_uniq compare cores))

let shadow_rewrites_installed () =
  let fabric, s = build_ft 4 in
  let routing = routing_for fabric s in
  ignore routing;
  (* The destination edge switch of host 12 must rewrite all 3 shadow
     MACs back to the base. *)
  let edge, _ = Fabric.host_attachment fabric ~host:12 in
  let sw = Fabric.switch fabric edge in
  (* Routes for base + 3 shadows of each of hosts 12,13 end at this
     switch; spot-check the route table knows the shadow MACs. *)
  List.iter
    (fun alt ->
      Alcotest.(check bool)
        (Printf.sprintf "route for alt %d present" alt)
        true
        (Switch.route sw (Mac.shadow (Mac.host 12) ~alt) <> None))
    [ 0; 1; 2; 3 ]

let tree_validity_qcheck =
  QCheck.Test.make ~name:"fat-tree trees reach their destination (k=4,6)"
    ~count:60
    QCheck.(pair (int_range 0 1) (pair (int_range 0 53) (int_range 0 8)))
    (fun (ki, (dst, alt)) ->
      let k = if ki = 0 then 4 else 6 in
      let s = Fat_tree.shape ~k in
      let dst = dst mod s.Fat_tree.num_hosts in
      let alt = alt mod s.Fat_tree.cores in
      let core = Fat_tree.core_for s ~dst ~alt in
      let out =
        Array.init s.Fat_tree.num_switches (fun switch ->
            Fat_tree.out_port s ~switch ~dst ~alt)
      in
      (* Walk from every edge switch and check arrival at dst's edge. *)
      Array.length out = s.Fat_tree.num_switches
      && out.(Fat_tree.core_id s core) >= 0)

(* The per-switch ports of the tree of [dst] through [core], built the
   way fat-tree trees were stored before routes were computed: the
   reference the computed lookups must agree with. *)
let reference_tree s ~dst ~core =
  let { Fat_tree.k; cores; pods; num_switches; _ } = s in
  let half = k / 2 in
  let first_agg = cores and first_edge = cores + (pods * half) in
  let p_d = dst / (half * half) and j_d = dst mod (half * half) / half in
  let out = Array.make num_switches (-1) in
  out.(core) <- p_d;
  for pod = 0 to pods - 1 do
    out.(first_agg + (pod * half) + (core / half)) <-
      (if pod = p_d then j_d else half + (core mod half));
    for j = 0 to half - 1 do
      out.(first_edge + (pod * half) + j) <-
        (if pod = p_d && j = j_d then dst mod half else half + (core / half))
    done
  done;
  out

(* Every (switch, dst, alt) lookup of an installed k = 4, 6, 8 fat tree
   at its full alternate count, against the reference trees, and the
   whole table against the digest the stored trees gave. *)
let fat_tree_routes_match_trees () =
  let table = Buffer.create (1 lsl 19) in
  List.iter
    (fun k ->
      let fabric, s = build_ft k in
      let routing = routing_for fabric s in
      for dst = 0 to s.Fat_tree.num_hosts - 1 do
        for alt = 0 to Fat_tree.max_alts s - 1 do
          let mac = Routing.mac_for routing ~dst ~alt in
          let want =
            reference_tree s ~dst ~core:(Fat_tree.core_for s ~dst ~alt)
          in
          for sw = 0 to s.Fat_tree.num_switches - 1 do
            let port =
              Option.value ~default:(-1)
                (Switch.route (Fabric.switch fabric sw) mac)
            in
            if port <> want.(sw) then
              Alcotest.failf "k=%d switch %d dst %d alt %d: port %d, tree %d"
                k sw dst alt port want.(sw);
            Buffer.add_string table (string_of_int port);
            Buffer.add_char table ','
          done
        done
      done;
      Buffer.add_char table ';')
    [ 4; 6; 8 ];
  Alcotest.(check string)
    "route table digest" "3458a8c7ac4d4a42be6351e6282827e0"
    (Digest.to_hex (Digest.string (Buffer.contents table)))

let single_switch_routes () =
  let engine = Engine.create () in
  let fabric =
    Single_switch.build engine ~hosts:8 ~switch_config:Switch.default_config
      ~link_rate:(Rate.gbps 10.0) ~prng:(Prng.create ~seed:1) ()
  in
  let routing =
    Routing.create fabric ~alts:1 ~out_port:Single_switch.out_port
  in
  Routing.install routing;
  let hops = Routing.path routing ~src:0 ~dst_mac:(Mac.host 7) in
  Alcotest.(check int) "one hop" 1 (List.length hops);
  Alcotest.(check int) "right port" 7 (List.hd hops).Routing.out_port

let jellyfish_builds_and_routes () =
  let engine = Engine.create () in
  let spec =
    { Jellyfish.num_switches = 10; switch_degree = 4; hosts_per_switch = 2 }
  in
  let fabric =
    Jellyfish.build engine ~spec ~switch_config:Switch.default_config
      ~link_rate:(Rate.gbps 10.0) ~prng:(Prng.create ~seed:7) ()
  in
  Alcotest.(check int) "hosts" 20 (Fabric.host_count fabric);
  let routing =
    Routing.create fabric ~alts:4 ~out_port:(Jellyfish.routes fabric ~alts:4)
  in
  Routing.install routing;
  (* Every pair has a valid path on every alternate. *)
  for src = 0 to 19 do
    for dst = 0 to 19 do
      if src <> dst then
        for alt = 0 to 3 do
          let mac = Routing.mac_for routing ~dst ~alt in
          let hops = Routing.path routing ~src ~dst_mac:mac in
          Alcotest.(check bool) "path exists" true (List.length hops >= 1)
        done
    done
  done

let fabric_rejects_double_wiring () =
  let engine = Engine.create () in
  let fabric =
    Fabric.build engine ~switch_ports:4 ~switch_config:Switch.default_config
      ~link_rate:(Rate.gbps 10.0) ~num_switches:2 ~num_hosts:1
      ~prng:(Prng.create ~seed:1) ()
  in
  Fabric.wire_host fabric ~host:0 ~switch:0 ~port:0;
  Alcotest.check_raises "port taken" (Invalid_argument "x") (fun () ->
      try Fabric.wire_switches fabric ~a:0 ~port_a:0 ~b:1 ~port_b:0
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* What the old per-pair static table held: every other fabric host's
   base MAC, and nothing for the host itself, for addresses past the
   fabric or outside 10.0/16. *)
let check_converged_arp name fabric =
  let n = Fabric.host_count fabric in
  for i = 0 to n - 1 do
    let h = Fabric.host fabric i in
    for j = 0 to n - 1 do
      let expected = if j = i then None else Some (Mac.host j) in
      if Host.arp_lookup h (Ip.host j) <> expected then
        Alcotest.failf "%s: host %d resolves host %d wrongly" name i j
    done;
    Alcotest.(check bool) (name ^ ": past the fabric") true
      (Host.arp_lookup h (Ip.host n) = None);
    Alcotest.(check bool) (name ^ ": outside 10.0/16") true
      (Host.arp_lookup h (Ip.of_string "10.1.0.1") = None)
  done

let populate_arp_resolves_every_pair () =
  let ft, _ = build_ft 4 in
  Fabric.populate_arp ft;
  check_converged_arp "fat tree" ft;
  let single =
    Single_switch.build (Engine.create ()) ~hosts:8
      ~switch_config:Switch.default_config ~link_rate:(Rate.gbps 10.0)
      ~prng:(Prng.create ~seed:1) ()
  in
  Fabric.populate_arp single;
  check_converged_arp "single switch" single;
  let jelly =
    Jellyfish.build (Engine.create ())
      ~spec:
        { Jellyfish.num_switches = 10; switch_degree = 4; hosts_per_switch = 2 }
      ~switch_config:Switch.default_config ~link_rate:(Rate.gbps 10.0)
      ~prng:(Prng.create ~seed:7) ()
  in
  Fabric.populate_arp jelly;
  check_converged_arp "jellyfish" jelly;
  (* A spoofed unicast request moves only its receiver to the shadow. *)
  let h0 = Fabric.host ft 0 in
  let shadow = Mac.shadow (Mac.host 9) ~alt:2 in
  Host.ingress h0
    (P.arp ~src_mac:shadow ~dst_mac:(Host.mac h0)
       {
         H.Arp.op = H.Arp.Request;
         sender_mac = shadow;
         sender_ip = Ip.host 9;
         target_mac = Host.mac h0;
         target_ip = Host.ip h0;
       });
  Engine.run (Host.engine h0);
  Alcotest.(check bool) "receiver resolves the shadow" true
    (Host.arp_lookup h0 (Ip.host 9) = Some shadow);
  for i = 1 to Fabric.host_count ft - 1 do
    if i <> 9 then
      Alcotest.(check bool) "others keep the base MAC" true
        (Host.arp_lookup (Fabric.host ft i) (Ip.host 9) = Some (Mac.host 9))
  done

let populate_arp_allocates_nothing_per_pair () =
  let ft, _ = build_ft 8 in
  let before = Gc.allocated_bytes () in
  Fabric.populate_arp ft;
  let allocated = Gc.allocated_bytes () -. before in
  if allocated >= 4096. then
    Alcotest.failf "populate_arp allocated %.0f bytes for %d hosts" allocated
      (Fabric.host_count ft)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Testbed.case "fat-tree shape counts" `Quick shape_counts;
    Testbed.case "fat-tree rejects odd k" `Quick shape_rejects_odd;
    Testbed.case "fat-tree wiring complete & symmetric" `Quick
      wiring_complete;
    Testbed.case "hosts contiguous within pods" `Quick
      hosts_contiguous_in_pods;
    Testbed.case "all-pairs paths valid" `Quick paths_valid_all_pairs;
    Testbed.case "cross-pod path uses expected core" `Quick
      cross_pod_uses_expected_core;
    Testbed.case "same-edge path is one hop" `Quick
      same_edge_path_is_one_hop;
    Testbed.case "alternates traverse distinct cores" `Quick
      alternates_are_core_disjoint;
    Testbed.case "shadow routes installed at edge" `Quick
      shadow_rewrites_installed;
    qtest tree_validity_qcheck;
    Testbed.case "fat-tree routes agree with the stored trees" `Quick
      fat_tree_routes_match_trees;
    Testbed.case "single-switch routing" `Quick single_switch_routes;
    Testbed.case "jellyfish builds and routes" `Quick
      jellyfish_builds_and_routes;
    Testbed.case "fabric rejects double wiring" `Quick
      fabric_rejects_double_wiring;
    Testbed.case "populate_arp resolves every pair" `Quick
      populate_arp_resolves_every_pair;
    Testbed.case "populate_arp allocates O(1)" `Quick
      populate_arp_allocates_nothing_per_pair;
  ]
