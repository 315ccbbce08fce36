(* Collector tests: the burst-clustered rate estimator, the rolling
   strawman, the flow table, port inference, congestion events, and the
   vantage-point pcap dump. *)

open Testbed
module Collector = Planck_collector.Collector
module Rate_estimator = Planck_collector.Rate_estimator
module Flow_table = Planck_collector.Flow_table
module Mac = Planck_packet.Mac
module Seq32 = Planck_packet.Seq32
module FK = Planck_packet.Flow_key
module Ip = Planck_packet.Ipv4_addr
module Sink = Planck_netsim.Sink

(* ---- Rate estimator ---- *)

let estimator_steady_stream () =
  (* 1460 B every 1.168 us = 10 Gbps of payload; estimates forced every
     700 us must converge on that rate. *)
  let e = Rate_estimator.create () in
  let last = ref None in
  for i = 0 to 2_000 do
    let time = i * 1168 in
    match Rate_estimator.update e ~time ~seq32:(Seq32.wrap (i * 1460)) with
    | Some rate -> last := Some rate
    | None -> ()
  done;
  match !last with
  | None -> Alcotest.fail "no estimate"
  | Some rate ->
      Alcotest.(check bool)
        (Printf.sprintf "%.3f Gbps" (Rate.to_gbps rate))
        true
        (abs_float (Rate.to_gbps rate -. 10.0) < 0.1)

let estimator_subsampled_stream () =
  (* Drop 9 of 10 samples: the sequence-based estimate must not change,
     because sequence numbers carry the byte count regardless of the
     sampling rate (the paper's core trick). *)
  let e = Rate_estimator.create () in
  let last = ref None in
  for i = 0 to 2_000 do
    if i mod 10 = 0 then begin
      let time = i * 1168 in
      match Rate_estimator.update e ~time ~seq32:(Seq32.wrap (i * 1460)) with
      | Some rate -> last := Some rate
      | None -> ()
    end
  done;
  match !last with
  | None -> Alcotest.fail "no estimate"
  | Some rate ->
      Alcotest.(check bool) "rate unaffected by subsampling" true
        (abs_float (Rate.to_gbps rate -. 10.0) < 0.1)

let estimator_burst_boundaries () =
  (* Two line-rate bursts separated by a 250 us gap: the estimate made
     at the second burst's start spans burst+gap, giving the per-RTT
     average — not the in-burst line rate. *)
  let e = Rate_estimator.create () in
  let estimates = ref [] in
  let feed ~start_time ~start_seq n =
    for i = 0 to n - 1 do
      match
        Rate_estimator.update e ~time:(start_time + (i * 1168))
          ~seq32:(Seq32.wrap (start_seq + (i * 1460)))
      with
      | Some r -> estimates := r :: !estimates
      | None -> ()
    done
  in
  feed ~start_time:0 ~start_seq:0 20;
  (* Gap of 250 us, then the next burst. *)
  feed ~start_time:(20 * 1168 + Time.us 250) ~start_seq:(20 * 1460) 20;
  Alcotest.(check int) "one estimate at the burst boundary" 1
    (List.length !estimates);
  let rate = List.hd !estimates in
  (* 20 * 1460 bytes over ~273 us is ~0.85 Gbps. *)
  Alcotest.(check bool)
    (Printf.sprintf "per-window average %.2f Gbps" (Rate.to_gbps rate))
    true
    (Rate.to_gbps rate < 2.0)

let estimator_ignores_out_of_order () =
  let e = Rate_estimator.create () in
  ignore (Rate_estimator.update e ~time:0 ~seq32:10_000);
  ignore (Rate_estimator.update e ~time:100 ~seq32:5_000);
  Alcotest.(check int) "ooo counted" 1 (Rate_estimator.out_of_order e);
  Alcotest.(check int) "samples counted" 2 (Rate_estimator.samples e)

let estimator_wraps () =
  let e = Rate_estimator.create () in
  let base = Seq32.modulus - 600_000 in
  let last = ref None in
  for i = 0 to 1_000 do
    match
      Rate_estimator.update e ~time:(i * 1168)
        ~seq32:(Seq32.wrap (base + (i * 1460)))
    with
    | Some r -> last := Some r
    | None -> ()
  done;
  match !last with
  | None -> Alcotest.fail "no estimate across wrap"
  | Some rate ->
      Alcotest.(check bool) "sane across wrap" true
        (abs_float (Rate.to_gbps rate -. 10.0) < 0.5)

let estimator_clamps () =
  let e = Rate_estimator.create ~max_rate:(Rate.gbps 10.0) () in
  ignore (Rate_estimator.update e ~time:0 ~seq32:0);
  (* 10 MB "in" 700us would be >100 Gbps; must clamp. *)
  ignore (Rate_estimator.update e ~time:(Time.us 300) ~seq32:5_000_000);
  (match Rate_estimator.update e ~time:(Time.us 701) ~seq32:10_000_000 with
  | Some rate ->
      Alcotest.(check (float 1.0)) "clamped" 10.0 (Rate.to_gbps rate)
  | None -> Alcotest.fail "expected estimate")

let estimator_monotone_qcheck =
  QCheck.Test.make
    ~name:"estimator never emits negative or absurd rates" ~count:200
    QCheck.(list (pair (int_range 0 1_000_000) (int_range 0 1_000_000)))
    (fun points ->
      let e = Rate_estimator.create () in
      let sorted =
        List.sort compare (List.map (fun (t, s) -> (t, s)) points)
      in
      List.for_all
        (fun (time, seq) ->
          match Rate_estimator.update e ~time ~seq32:(Seq32.wrap seq) with
          | None -> true
          | Some rate -> rate >= 0.0)
        sorted)

let rolling_estimator_jitters () =
  (* The Fig 10a strawman: with RTT-spaced bursts, a 200 us rolling
     window sometimes sees zero bytes and sometimes a whole burst. *)
  let r = Rate_estimator.Rolling.create () in
  let samples = ref [] in
  (* Bursts of 100 packets at line rate every 350 us: the window
     alternately holds a whole burst and almost nothing. *)
  for burst = 0 to 19 do
    for i = 0 to 99 do
      let idx = (burst * 100) + i in
      match
        Rate_estimator.Rolling.update r
          ~time:((burst * Time.us 350) + (i * 1168))
          ~seq32:(Seq32.wrap (idx * 1460))
      with
      | Some rate -> samples := rate :: !samples
      | None -> ()
    done
  done;
  let gbps = List.map Rate.to_gbps !samples in
  let spread =
    List.fold_left max neg_infinity gbps -. List.fold_left min infinity gbps
  in
  Alcotest.(check bool)
    (Printf.sprintf "jitter spread %.1f Gbps" spread)
    true (spread > 3.0)

(* ---- Flow table ---- *)

let flow_table_lifecycle () =
  let table = Flow_table.create ~timeout:(Time.ms 5) () in
  let key =
    {
      FK.src_ip = Ip.host 0;
      dst_ip = Ip.host 1;
      src_port = 1;
      dst_port = 2;
      protocol = 6;
    }
  in
  let entry = Flow_table.touch table ~key ~time:0 ~dst_mac:(Mac.host 1) () in
  entry.Flow_table.out_port <- 3;
  Alcotest.(check int) "size" 1 (Flow_table.size table);
  Alcotest.(check int) "active at 4ms" 1
    (List.length (Flow_table.active table ~now:(Time.ms 4)));
  Alcotest.(check int) "on port" 1
    (List.length (Flow_table.active_on_port table ~now:(Time.ms 4) ~out_port:3));
  Alcotest.(check int) "expired at 6ms" 0
    (List.length (Flow_table.active table ~now:(Time.ms 6)));
  Alcotest.(check int) "expiry removed entry" 0 (Flow_table.size table)

let flow_table_sweep_and_expiry_hooks () =
  let table = Flow_table.create ~timeout:(Time.ms 5) () in
  let expired = ref [] in
  Flow_table.add_on_expire table (fun ~now:_ entry ->
      expired := entry.Flow_table.key :: !expired);
  let key i =
    {
      FK.src_ip = Ip.host i;
      dst_ip = Ip.host (i + 1);
      src_port = i;
      dst_port = 2;
      protocol = 6;
    }
  in
  ignore (Flow_table.touch table ~key:(key 2) ~time:0 ~dst_mac:(Mac.host 1) ());
  ignore (Flow_table.touch table ~key:(key 1) ~time:0 ~dst_mac:(Mac.host 1) ());
  ignore
    (Flow_table.touch table ~key:(key 3) ~time:(Time.ms 4)
       ~dst_mac:(Mac.host 1) ());
  Alcotest.(check int) "three resident" 3 (Flow_table.size table);
  Alcotest.(check int) "sweep evicts the idle two" 2
    (Flow_table.sweep table ~now:(Time.ms 7));
  Alcotest.(check int) "size counts survivors only" 1 (Flow_table.size table);
  Alcotest.(check (list int))
    "expiry callbacks fired in ascending key order"
    [ 1; 2 ]
    (List.rev_map (fun k -> k.FK.src_port) !expired);
  Alcotest.(check int) "idempotent when nothing is idle" 0
    (Flow_table.sweep table ~now:(Time.ms 7));
  Alcotest.(check bool) "survivor still resident" true
    (Flow_table.find table (key 3) <> None)

let collector_occupancy_telemetry_registered () =
  let tb = single_switch ~hosts:2 () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:(Rate.gbps 10.0) ()
  in
  ignore (Collector.switch_id collector);
  let module Metrics = Planck_telemetry.Metrics in
  let has name =
    List.exists
      (fun (s : Metrics.snapshot) ->
        s.Metrics.subsystem = "collector" && s.Metrics.name = name
        && s.Metrics.label = "s0")
      (Metrics.snapshot Metrics.default)
  in
  Alcotest.(check bool) "occupancy gauge registered" true
    (has "flow_table_entries");
  Alcotest.(check bool) "eviction counter registered" true
    (has "flow_table_evictions")

(* ---- Collector end-to-end ---- *)

let with_collector ?(hosts = 4) () =
  let tb = single_switch ~hosts () in
  let collector =
    Collector.create tb.engine ~switch:0 ~routing:tb.routing
      ~link_rate:rate_10g ()
  in
  Collector.attach collector;
  (tb, collector)

let collector_port_inference () =
  let tb, collector = with_collector () in
  let flow = start_flow tb ~src:2 ~dst:3 ~size:(4 * 1024 * 1024) () in
  let inferred = ref [] in
  Collector.set_tap collector (fun ~rx ~arrival packet ->
      let s = Collector.sample collector ~rx ~arrival packet in
      if s.Collector.payload > 0 then
        inferred := (s.Collector.in_port, s.Collector.out_port) :: !inferred);
  Engine.run ~until:(Time.ms 10) tb.engine;
  ignore flow;
  Alcotest.(check bool) "samples tapped" true (List.length !inferred > 10);
  List.iter
    (fun (inp, outp) ->
      Alcotest.(check (pair int int)) "ports inferred" (2, 3) (inp, outp))
    !inferred

let collector_link_utilization () =
  let tb, collector = with_collector () in
  ignore (start_flow tb ~src:0 ~dst:1 ~size:(20 * 1024 * 1024) ());
  Engine.run ~until:(Time.ms 15) tb.engine;
  let util = Collector.link_utilization collector ~port:1 in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f Gbps" (Rate.to_gbps util))
    true
    (Rate.to_gbps util > 5.0 && Rate.to_gbps util <= 10.0);
  Alcotest.(check int) "idle port empty" 0
    (List.length (Collector.flows_on_port collector ~port:2))

let collector_congestion_event () =
  let tb, collector = with_collector () in
  let events = ref [] in
  Collector.subscribe_congestion collector ~threshold:0.5 (fun e ->
      events := e :: !events);
  (* Two flows into one port: utilization approaches 10G > 0.5 * 10G. *)
  ignore (start_flow tb ~src:0 ~dst:2 ~size:(20 * 1024 * 1024) ());
  ignore (start_flow tb ~src:1 ~dst:2 ~size:(20 * 1024 * 1024) ());
  Engine.run ~until:(Time.ms 20) tb.engine;
  Alcotest.(check bool) "events fired" true (List.length !events > 0);
  let e = List.hd !events in
  Alcotest.(check int) "congested port" 2 e.Collector.port;
  Alcotest.(check int) "two flows annotated" 2 (List.length e.Collector.flows);
  Alcotest.(check bool) "cooldown bounds event count" true
    (List.length !events < 25)

let collector_vantage_pcap () =
  let tb, collector = with_collector () in
  Collector.capture collector ~capacity:8192;
  ignore (start_flow tb ~src:0 ~dst:1 ~size:(1024 * 1024) ());
  Engine.run ~until:(Time.ms 10) tb.engine;
  let pcap = Collector.vantage_pcap collector in
  Alcotest.(check bool) "has samples" true (Collector.vantage_count collector > 100);
  Alcotest.(check char) "pcap magic" '\xd4' pcap.[0];
  Alcotest.(check bool) "plausible size" true
    (String.length pcap > 24 + (Collector.vantage_count collector * 16));
  (* Pinned capture: the ring keeps the frames the monitor port
     delivered, and dumping them must give these exact bytes. *)
  Alcotest.(check int) "samples retained" 1441
    (Collector.vantage_count collector);
  Alcotest.(check string) "capture md5" "1a388d56aa179c256683efa0d4bb1d04"
    (Digest.to_hex (Digest.string pcap))

let collector_rejects_empty_vantage () =
  let _tb, collector = with_collector () in
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Collector.capture: capacity <= 0") (fun () ->
      Collector.capture collector ~capacity:0)

(* The records of a pcap image (after its 24-byte header), oldest
   first, as (timestamp in µs, record bytes). *)
let pcap_records pcap =
  let u32 off = Int32.to_int (String.get_int32_le pcap off) land 0xFFFF_FFFF in
  let rec go off acc =
    if off >= String.length pcap then List.rev acc
    else
      let len = 16 + u32 (off + 8) in
      let us = (u32 off * 1_000_000) + u32 (off + 4) in
      go (off + len) ((us, String.sub pcap off len) :: acc)
  in
  go 24 []

let vantage_off_until_capture () =
  (* A deployed PlanckTE keeps no frames: nobody asked for a capture. *)
  let tb = Planck.Testbed.create (Planck.Testbed.paper_fat_tree ()) in
  Testbed.observe tb;
  let deployed = Planck.Scheme.deploy tb Planck.Scheme.planck_te_default in
  let collectors =
    match deployed.Planck.Scheme.controller with
    | Some c -> Planck_controller.Controller.collectors c
    | None -> Alcotest.fail "PlanckTE deployed no controller"
  in
  let ep = tb.Planck.Testbed.endpoints in
  ignore
    (Flow.start ~src:ep.(0) ~dst:ep.(12) ~src_port:40_000 ~dst_port:5_012
       ~size:(1 lsl 30) ());
  Engine.run ~until:(Time.ms 2) tb.Planck.Testbed.engine;
  Alcotest.(check int) "one collector per switch" 20 (List.length collectors);
  Alcotest.(check bool) "collectors saw samples" true
    (List.exists (fun c -> Collector.samples_seen c > 0) collectors);
  List.iter
    (fun c ->
      let name = Printf.sprintf "s%d" (Collector.switch_id c) in
      Alcotest.(check int) (name ^ " retains nothing") 0
        (Collector.vantage_count c);
      Alcotest.(check int) (name ^ " pcap is the bare header") 24
        (String.length (Collector.vantage_pcap c)))
    collectors

let capture_starts_mid_run () =
  let tb, collector = with_collector () in
  ignore (start_flow tb ~src:0 ~dst:1 ~size:(1024 * 1024) ());
  Engine.run ~until:(Time.ms 1) tb.engine;
  let start = Engine.now tb.engine in
  let seen_before = Collector.samples_seen collector in
  Alcotest.(check bool) "samples before the capture" true (seen_before > 0);
  Alcotest.(check int) "nothing retained yet" 0
    (Collector.vantage_count collector);
  Collector.capture collector ~capacity:8192;
  Engine.run ~until:(Time.ms 10) tb.engine;
  let captured = Collector.samples_seen collector - seen_before in
  Alcotest.(check bool) "samples after the capture" true (captured > 0);
  Alcotest.(check int) "exactly the samples since the capture" captured
    (Collector.vantage_count collector);
  let records = pcap_records (Collector.vantage_pcap collector) in
  Alcotest.(check int) "one record per retained frame" captured
    (List.length records);
  List.iter
    (fun (us, _) ->
      if us < start / Time.microsecond then
        Alcotest.failf "record at %d us predates the capture (%d us)" us
          (start / Time.microsecond))
    records

let capture_shrink_keeps_newest () =
  let tb, collector = with_collector () in
  Collector.capture collector ~capacity:64;
  ignore (start_flow tb ~src:0 ~dst:1 ~size:(1024 * 1024) ());
  Engine.run ~until:(Time.ms 10) tb.engine;
  let before = Collector.vantage_pcap collector in
  let records = pcap_records before in
  Alcotest.(check int) "full ring" 64 (List.length records);
  Collector.capture collector ~capacity:16;
  Alcotest.(check int) "shrunk to the new capacity" 16
    (Collector.vantage_count collector);
  let newest = List.filteri (fun i _ -> i >= 64 - 16) records in
  Alcotest.(check string) "the newest 16 frames, in order"
    (String.sub before 0 24 ^ String.concat "" (List.map snd newest))
    (Collector.vantage_pcap collector)

let collector_oversubscription_samples () =
  (* Saturate 3 flows to distinct ports: 30G of mirror traffic into a
     10G monitor port. The collector must still see samples of every
     flow, and mirror drops must be recorded at the switch. *)
  let tb, collector = with_collector ~hosts:6 () in
  let flows =
    List.init 3 (fun i -> start_flow tb ~src:i ~dst:(i + 3) ~size:(8 * 1024 * 1024) ())
  in
  Engine.run ~until:(Time.ms 10) tb.engine;
  List.iter
    (fun f ->
      Alcotest.(check bool) "each flow sampled and estimated" true
        (Collector.flow_rate collector (Flow.key f) <> None))
    flows;
  Alcotest.(check bool) "mirror drops happened" true
    (Switch.total_mirror_drops (Fabric.switch tb.fabric 0) > 100);
  (* Conservation once the engine has drained: every frame the monitor
     port transmitted was either accepted by the sink or dropped at its
     full ring, and every accepted frame reached the collector. *)
  Engine.run tb.engine;
  let sink = Option.get (Collector.sink collector) in
  let sw = Fabric.switch tb.fabric 0 in
  let monitor = Option.get (Switch.monitor_port sw) in
  Alcotest.(check int) "accepted frames all sampled"
    (Sink.frames_seen sink)
    (Collector.samples_seen collector);
  Alcotest.(check int) "monitor tx = accepted + ring drops"
    (Switch.port_stats sw ~port:monitor).Switch.tx_packets
    (Sink.frames_seen sink + Sink.ring_drops sink)

(* TE's effective-watch taps every collector while the journal is on,
   but a frame costs it nothing until a reroute awaits its stamp: with
   no reroute armed (a threshold no link can cross), turning the
   journal on adds under one minor word per sample to a k=4 PlanckTE
   run. The journal's own records (rate estimates, drops) are in that
   budget too. *)
let journal_tap_allocates_nothing () =
  let module Journal = Planck_telemetry.Journal in
  let module Experiment = Planck.Experiment in
  let module Scheme = Planck.Scheme in
  let module Te = Planck_controller.Te in
  let run ~journal =
    let collectors = ref [] in
    Journal.clear Journal.default;
    Journal.set_enabled Journal.default journal;
    Fun.protect
      ~finally:(fun () ->
        Journal.set_enabled Journal.default false;
        Journal.clear Journal.default)
      (fun () ->
        Experiment.with_observer
          (fun _ (deployed : Scheme.deployed) ->
            Option.iter
              (fun c -> collectors := Planck_controller.Controller.collectors c)
              deployed.Scheme.controller;
            None)
        @@ fun () ->
        let before = Gc.minor_words () in
        let summary =
          Experiment.run ~spec:(Planck.Testbed.paper_fat_tree ())
            ~scheme:
              (Scheme.Planck_te
                 { Te.default_config with Te.congestion_threshold = 2.0 })
            ~workload:(Experiment.Stride 8) ~size:(1024 * 1024) ()
        in
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "no reroute armed" 0 summary.Experiment.reroutes;
        let samples =
          List.fold_left (fun n c -> n + Collector.samples_seen c) 0 !collectors
        in
        (words, samples, Journal.length Journal.default))
  in
  let off, samples, _ = run ~journal:false in
  let on, samples', recorded = run ~journal:true in
  Alcotest.(check int) "same samples either way" samples samples';
  Alcotest.(check bool) "the run samples" true (samples > 10_000);
  Alcotest.(check bool) "the journal records" true (recorded > 0);
  let per_sample = (on -. off) /. float_of_int samples in
  Alcotest.(check bool)
    (Printf.sprintf "journal on adds %.2f words/sample (<= 1)" per_sample)
    true (per_sample <= 1.0)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Testbed.case "estimator on steady stream" `Quick
      estimator_steady_stream;
    Testbed.case "estimator immune to subsampling" `Quick
      estimator_subsampled_stream;
    Testbed.case "estimator burst clustering" `Quick
      estimator_burst_boundaries;
    Testbed.case "estimator ignores out-of-order" `Quick
      estimator_ignores_out_of_order;
    Testbed.case "estimator across seq wrap" `Quick estimator_wraps;
    Testbed.case "estimator clamps to link rate" `Quick estimator_clamps;
    qtest estimator_monotone_qcheck;
    Testbed.case "rolling estimator jitters (fig 10a)" `Quick
      rolling_estimator_jitters;
    Testbed.case "flow table lifecycle" `Quick flow_table_lifecycle;
    Testbed.case "flow table sweep + expiry hooks" `Quick
      flow_table_sweep_and_expiry_hooks;
    Testbed.case "occupancy telemetry registered" `Quick
      collector_occupancy_telemetry_registered;
    Testbed.case "port inference" `Quick collector_port_inference;
    Testbed.case "link utilization" `Quick collector_link_utilization;
    Testbed.case "congestion events" `Quick collector_congestion_event;
    Testbed.case "vantage pcap dump" `Quick collector_vantage_pcap;
    Testbed.case "vantage capacity must be positive" `Quick
      collector_rejects_empty_vantage;
    Testbed.case "no vantage ring until capture" `Quick
      vantage_off_until_capture;
    Testbed.case "capture starts mid-run" `Quick capture_starts_mid_run;
    Testbed.case "capture shrink keeps newest" `Quick
      capture_shrink_keeps_newest;
    Testbed.case "journal-on TE tap allocates nothing per sample"
      `Quick journal_tap_allocates_nothing;
    Testbed.case "oversubscribed sampling" `Quick
      collector_oversubscription_samples;
  ]
