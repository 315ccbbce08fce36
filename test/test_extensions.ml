(* Tests for the paper's §9.2/§3.2.2 extension features: preferential
   sampling of SYN/FIN, collector flow-lifecycle events, retransmission
   inference, and the §9.1 scalability arithmetic. *)

open Testbed
module Collector = Planck_collector.Collector
module Txport = Planck_netsim.Txport
module P = Planck_packet.Packet
module H = Planck_packet.Headers
module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr
module Scalability = Planck.Scalability

let mk ?(seq = 0) ?(payload = 1460) () =
  P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1) ~src_ip:(Ip.host 0)
    ~dst_ip:(Ip.host 1) ~src_port:1 ~dst_port:2 ~seq ~ack_seq:0
    ~flags:H.Tcp_flags.ack ~payload_len:payload ()

(* Test frames are told apart by their TCP sequence number. *)
let seq_of p =
  match p with P.Tcp { seq; _ } -> seq | P.Udp _ | P.Arp _ -> -1

(* ---- Txport strict priority ---- *)

let txport_priority_class () =
  let e = Engine.create () in
  let order = ref [] in
  let tx =
    Txport.create e ~rate:(Rate.gbps 10.0) ~prop_delay:0 ~classes:3
      ~priority_class:2
      ~deliver:(fun p -> order := seq_of p :: !order)
      ~on_depart:(fun _ -> ())
      ()
  in
  let a = mk ~seq:1 () and b = mk ~seq:2 () and special = mk ~seq:3 () in
  Engine.schedule e ~delay:0 (fun () ->
      Txport.enqueue tx ~cls:0 a;
      Txport.enqueue tx ~cls:0 b;
      Txport.enqueue tx ~cls:2 special);
  Engine.run e;
  (* a transmits immediately; the priority frame preempts b. *)
  Alcotest.(check (list int)) "priority preempts round-robin"
    (List.map seq_of [ a; special; b ])
    (List.rev !order)

(* ---- Preferential sampling end-to-end ---- *)

let priority_config =
  { Switch.default_config with Switch.mirror_priority_special = true }

let syn_observed_quickly ~special_priority =
  (* Saturate the monitor port with 3 bulk flows for 20 ms, then start
     a new flow and measure when its SYN is seen at the collector. *)
  let config =
    if special_priority then priority_config else Switch.default_config
  in
  let tb = single_switch ~hosts:10 ~config () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  List.iter
    (fun i -> ignore (start_flow tb ~src:i ~dst:(5 + i) ~size:(1 lsl 30) ()))
    [ 0; 1; 2 ];
  Engine.run ~until:(Time.ms 20) tb.engine;
  let started = ref None in
  Collector.subscribe_flow_events collector (fun e ->
      if e.Collector.kind = Collector.Flow_started && !started = None then
        started := Some e.Collector.time);
  let t0 = Engine.now tb.engine in
  ignore (start_flow tb ~src:3 ~dst:8 ~size:(1024 * 1024) ());
  Engine.run ~until:(t0 + Time.ms 20) tb.engine;
  Option.map (fun t -> t - t0) !started

let preferential_sampling_beats_backlog () =
  let with_priority = syn_observed_quickly ~special_priority:true in
  let without = syn_observed_quickly ~special_priority:false in
  match (with_priority, without) with
  | Some fast, Some slow ->
      Alcotest.(check bool)
        (Printf.sprintf "SYN seen in %s with priority vs %s without"
           (Time.to_string fast) (Time.to_string slow))
        true
        (fast < Time.ms 1 && slow > 2 * fast)
  | _ -> Alcotest.fail "SYN event not observed"

let flow_end_event () =
  let tb = single_switch ~hosts:4 () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  let events = ref [] in
  Collector.subscribe_flow_events collector (fun e -> events := e :: !events);
  let flow = start_flow tb ~src:0 ~dst:1 ~size:(512 * 1024) () in
  Engine.run ~until:(Time.ms 20) tb.engine;
  Alcotest.(check bool) "flow completed" true (Flow.completed flow);
  let kinds key =
    List.filter_map
      (fun e ->
        if Planck_packet.Flow_key.equal e.Collector.flow key then
          Some e.Collector.kind
        else None)
      !events
  in
  let ks = kinds (Flow.key flow) in
  Alcotest.(check bool) "started seen" true
    (List.mem Collector.Flow_started ks);
  Alcotest.(check bool) "ended seen" true (List.mem Collector.Flow_ended ks)

let syn_flood_bounded () =
  (* A storm of SYNs must not monopolize the monitor port: the special
     fraction is bounded. *)
  let tb = single_switch ~hosts:6 ~config:priority_config () in
  let sw = Fabric.switch tb.fabric 0 in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  (* Bulk background plus many tiny flows (each contributes SYN+FIN). *)
  ignore (start_flow tb ~src:0 ~dst:3 ~size:(1 lsl 30) ());
  for i = 0 to 199 do
    Engine.schedule tb.engine ~delay:(Time.us (50 * i)) (fun () ->
        ignore
          (Flow.start ~src:tb.endpoints.(1) ~dst:tb.endpoints.(4)
             ~src_port:(10_000 + i) ~dst_port:(30_000 + i) ~size:1460 ()))
  done;
  Engine.run ~until:(Time.ms 30) tb.engine;
  let special = Switch.special_mirrored sw in
  let stats = Switch.port_stats sw ~port:6 in
  ignore stats;
  Alcotest.(check bool)
    (Printf.sprintf "special samples bounded: %d" special)
    true
    (special > 0 && special < 600)

(* ---- Retransmission inference ---- *)

let retransmission_fraction () =
  let config =
    {
      Switch.default_config with
      Switch.buffer_total = 150_000;
      buffer_reservation = 0;
    }
  in
  let tb = single_switch ~hosts:4 ~config () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  (* Two flows into one port with a tiny buffer: guaranteed
     retransmissions. *)
  let f1 = start_flow tb ~src:0 ~dst:2 ~size:(5 * 1024 * 1024) () in
  let f2 = start_flow tb ~src:1 ~dst:2 ~size:(5 * 1024 * 1024) () in
  Engine.run ~until:(Time.s 2) tb.engine;
  Alcotest.(check bool) "flows completed" true
    (Flow.completed f1 && Flow.completed f2);
  let retx = Flow.retransmits f1 + Flow.retransmits f2 in
  let inferred key = Collector.flow_retransmission_fraction collector key in
  (match (inferred (Flow.key f1), inferred (Flow.key f2)) with
  | Some a, Some b ->
      Alcotest.(check bool)
        (Printf.sprintf "retx happened (%d); inferred %.3f / %.3f" retx a b)
        true
        (retx = 0 || a +. b > 0.0)
  | _ -> Alcotest.fail "flows not tracked");
  (* A clean flow infers ~zero. *)
  let tb2 = single_switch ~hosts:4 () in
  let c2 =
    Collector.create tb2.engine ~switch:0 ~routing:tb2.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach c2;
  let clean = start_flow tb2 ~src:0 ~dst:1 ~size:(2 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 20) tb2.engine;
  match Collector.flow_retransmission_fraction c2 (Flow.key clean) with
  | Some f -> Alcotest.(check bool) "clean flow ~0" true (f < 0.01)
  | None -> Alcotest.fail "clean flow not tracked"

(* ---- Scalability (§9.1) ---- *)

let scalability_paper_numbers () =
  let ft = Scalability.fat_tree_plan ~k:62 in
  Alcotest.(check int) "hosts" 59_582 ft.Scalability.hosts;
  Alcotest.(check int) "switches" 4_805 ft.Scalability.switches;
  Alcotest.(check int) "collector servers" 344 ft.Scalability.collector_servers;
  Alcotest.(check bool) "0.58% additional" true
    (abs_float (ft.Scalability.additional_machines_pct -. 0.58) < 0.01);
  let jf =
    Scalability.jellyfish_plan ~ports:64 ~hosts_per_switch:17 ~hosts:59_582
  in
  Alcotest.(check int) "jellyfish switches" 3_505 jf.Scalability.switches;
  Alcotest.(check int) "jellyfish collectors" 251
    jf.Scalability.collector_servers;
  Alcotest.(check bool) "0.42% additional" true
    (abs_float (jf.Scalability.additional_machines_pct -. 0.42) < 0.01);
  let ft_cost, jf_cost = Scalability.monitor_port_host_cost ~fat_tree_k:62 in
  Alcotest.(check bool) "fat-tree host cost ~1.4-1.6%" true
    (ft_cost > 1.0 && ft_cost < 2.0);
  Alcotest.(check (float 0.01)) "jellyfish host cost 5.5%" 5.56 jf_cost

let sampling_fraction_reporting () =
  (* Undersubscribed: the trace is complete (fraction ~1). Oversubscribed
     by 3 saturated flows: each flow's trace holds roughly a third. *)
  let tb1 = single_switch ~hosts:4 () in
  let c1 =
    Collector.create tb1.engine ~switch:0 ~routing:tb1.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach c1;
  let lone = start_flow tb1 ~src:0 ~dst:1 ~size:(4 * 1024 * 1024) () in
  Engine.run ~until:(Time.ms 10) tb1.engine;
  (match Collector.flow_sampling_fraction c1 (Flow.key lone) with
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "complete capture: %.2f" f)
        true (f > 0.95 && f <= 1.01)
  | None -> Alcotest.fail "no fraction for lone flow");
  let tb3 = single_switch ~hosts:8 () in
  let c3 =
    Collector.create tb3.engine ~switch:0 ~routing:tb3.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach c3;
  let flows =
    List.init 3 (fun i -> start_flow tb3 ~src:i ~dst:(4 + i) ~size:(1 lsl 30) ())
  in
  Engine.run ~until:(Time.ms 25) tb3.engine;
  List.iter
    (fun f ->
      match Collector.flow_sampling_fraction c3 (Flow.key f) with
      | Some frac ->
          Alcotest.(check bool)
            (Printf.sprintf "oversubscribed fraction ~1/3: %.2f" frac)
            true
            (frac > 0.2 && frac < 0.5)
      | None -> Alcotest.fail "no fraction under oversubscription")
    flows

let tests =
  [
    Testbed.case "txport strict priority" `Quick txport_priority_class;
    Testbed.case "preferential sampling beats backlog" `Quick
      preferential_sampling_beats_backlog;
    Testbed.case "flow start/end events" `Quick flow_end_event;
    Testbed.case "SYN flood bounded" `Quick syn_flood_bounded;
    Testbed.case "retransmission inference" `Quick
      retransmission_fraction;
    Testbed.case "scalability arithmetic (sec 9.1)" `Quick
      scalability_paper_numbers;
    Testbed.case "vantage sampling fraction (sec 6.1)" `Quick
      sampling_fraction_reporting;
  ]

