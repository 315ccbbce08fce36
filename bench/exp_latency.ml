(* §5.2 (undersubscribed sample latency), Figure 8 (latency CDF under
   congestion, 10 G vs 1 G), Figure 9 (latency vs oversubscription
   factor), and Figure 12 (the measurement-latency timeline). *)

open Exp_common

(* Match each collector sample to the sender's first transmission of
   that (flow, seq): the send->collector latency of §5.2. *)
let sample_latencies m trace =
  let latencies = ref [] in
  Collector.set_tap m.collector (fun ~rx ~arrival packet ->
      let s = Collector.sample m.collector ~rx ~arrival packet in
      match (s.Collector.key, s.Collector.seq32) with
      | Some key, Some seq when s.Collector.payload > 0 -> (
          match Hashtbl.find_opt trace.first_tx (key, seq) with
          | Some sent -> latencies := (s.Collector.rx - sent) :: !latencies
          | None -> ())
      | _ -> ());
  latencies

let congested_run ?(flows = 3) ~rate ~config ~seed ~duration () =
  let m = micro_testbed ~hosts:28 ~rate ~config ~seed () in
  let trace = trace_senders m.tb (List.init flows Fun.id) in
  let latencies = sample_latencies m trace in
  List.iteri
    (fun i _ -> ignore (saturating_flow m.tb ~src:i ~dst:(14 + i)))
    (List.init flows Fun.id);
  Engine.run ~until:duration m.tb.Testbed.engine;
  List.map ms !latencies

let undersubscribed_run ~rate ~config ~seed ~duration =
  let m = micro_testbed ~hosts:4 ~rate ~config ~seed () in
  let trace = trace_senders m.tb [ 0 ] in
  let latencies = sample_latencies m trace in
  (* One window-limited trickle flow: the monitor port stays idle, so
     these latencies are pure stack + wire + capture delay. *)
  ignore
    (Flow.start ~src:m.tb.Testbed.endpoints.(0) ~dst:m.tb.Testbed.endpoints.(1)
       ~src_port:1 ~dst_port:2 ~size:(1 lsl 30)
       ~params:
         { Flow.default_params with Flow.max_flight = 2 * 1460 }
       ());
  Engine.run ~until:duration m.tb.Testbed.engine;
  List.map us !latencies

let print_latency_cdf label values_ms =
  Printf.printf "  %s (n=%d):\n" label (List.length values_ms);
  Table.print ~header:[ "pctile"; "latency (ms)" ]
    (List.map
       (fun (p, v) -> [ Printf.sprintf "p%g" p; Printf.sprintf "%.2f" v ])
       (cdf_deciles values_ms))

let run opts =
  let duration = if opts.full then Time.ms 120 else Time.ms 40 in

  section "Sec 5.2: sample latency on an idle network";
  let us_10g =
    undersubscribed_run ~rate:rate_10g ~config:Switch.default_config
      ~seed:opts.seed ~duration
  in
  let us_1g =
    undersubscribed_run ~rate:rate_1g ~config:pronto_config ~seed:opts.seed
      ~duration
  in
  Table.print ~header:[ "network"; "min (us)"; "median (us)"; "max (us)" ]
    [
      [
        "10 Gbps";
        Printf.sprintf "%.0f" (Stats.percentile 1.0 us_10g);
        Printf.sprintf "%.0f" (Stats.median us_10g);
        Printf.sprintf "%.0f" (Stats.percentile 99.0 us_10g);
      ];
      [
        "1 Gbps";
        Printf.sprintf "%.0f" (Stats.percentile 1.0 us_1g);
        Printf.sprintf "%.0f" (Stats.median us_1g);
        Printf.sprintf "%.0f" (Stats.percentile 99.0 us_1g);
      ];
    ];
  paper "75-150 us on 10 Gbps; 80-450 us on 1 Gbps.";

  section "Figure 8: sample latency under congestion (3 saturated flows)";
  let lat_10g =
    congested_run ~rate:rate_10g ~config:Switch.default_config ~seed:opts.seed
      ~duration ()
  in
  print_latency_cdf "IBM G8264-like (10 Gbps)" lat_10g;
  let lat_1g =
    congested_run ~rate:rate_1g ~config:pronto_config ~seed:opts.seed
      ~duration:(if opts.full then Time.ms 400 else Time.ms 150) ()
  in
  print_latency_cdf "Pronto 3290-like (1 Gbps)" lat_1g;
  paper "median ~3.5 ms at 10 Gbps, just over 6 ms at 1 Gbps.";

  section "Figure 9: sample latency vs oversubscription factor (10 Gbps)";
  let rows =
    List.map
      (fun flows ->
        let lats =
          congested_run ~flows ~rate:rate_10g ~config:Switch.default_config
            ~seed:opts.seed
            ~duration:(if opts.full then Time.ms 60 else Time.ms 25)
            ()
        in
        [
          Printf.sprintf "%d.0" flows;
          Printf.sprintf "%.2f" (Stats.mean lats);
          Printf.sprintf "%.2f" (Stats.median lats);
        ])
      [ 1; 2; 3; 4; 6; 8; 10; 12; 14 ]
  in
  Table.print ~header:[ "factor"; "mean (ms)"; "median (ms)" ] rows;
  paper "roughly constant ~3.5 ms for any factor > 1: the switch gives";
  paper "the mirror port a fixed buffer share once saturated.";

  section "Figure 12 / Table 1: measurement latency breakdown";
  (* Minbuffer configuration: time from send to (a) collector rx and
     (b) first stable rate estimate for a starting flow. *)
  let breakdown ~rate ~config label =
    let m = micro_testbed ~hosts:8 ~rate ~config ~seed:opts.seed () in
    let trace = trace_senders m.tb [ 0; 1; 2 ] in
    let latencies = sample_latencies m trace in
    let estimate_delays = ref [] in
    let starts = Hashtbl.create 8 in
    Collector.on_estimate m.collector (fun key _rate time ->
        match Hashtbl.find_opt starts key with
        | Some start ->
            estimate_delays := (time - start) :: !estimate_delays;
            Hashtbl.remove starts key
        | None -> ());
    (* Three staggered saturated flows; record each flow's first send. *)
    List.iteri
      (fun i delay ->
        Engine.schedule m.tb.Testbed.engine ~delay (fun () ->
            let f = saturating_flow m.tb ~src:i ~dst:(4 + i) in
            Hashtbl.replace starts (Flow.key f) (Engine.now m.tb.Testbed.engine)))
      [ Time.ms 1; Time.ms 6; Time.ms 11 ];
    Engine.run ~until:(Time.ms 30) m.tb.Testbed.engine;
    let sample_ms = List.map ms !latencies in
    let settle_ms = List.map ms !estimate_delays in
    [
      label;
      Printf.sprintf "%.2f-%.2f"
        (Stats.percentile 1.0 sample_ms)
        (Stats.percentile 99.0 sample_ms);
      Printf.sprintf "%.2f-%.2f"
        (Stats.percentile 0.0 settle_ms)
        (Stats.percentile 100.0 settle_ms);
    ]
  in
  Table.print
    ~header:[ "configuration"; "sample delay (ms)"; "flow start->estimate (ms)" ]
    [
      breakdown ~rate:rate_10g
        ~config:(minbuffer Switch.default_config)
        "10G minbuffer";
      breakdown ~rate:rate_1g ~config:(minbuffer pronto_config) "1G minbuffer";
      breakdown ~rate:rate_10g ~config:Switch.default_config "10G buffered";
      breakdown ~rate:rate_1g ~config:pronto_config "1G buffered";
    ];
  paper "minbuffer: 275-850 us total at 10G (sample 75-150 us +";
  paper "estimator 200-700 us); buffered: <= 4.2 ms at 10G, <= 7.2 ms at 1G."
