(* Figure 10 (§5.4): throughput estimation during slow start — the
   jittery 200 us rolling average vs Planck's burst-clustered estimator.
   Figure 11: estimation error vs oversubscription factor, against
   ground truth recovered from sender-side traces. *)

open Exp_common
module Rate_estimator = Planck_collector.Rate_estimator

let run_fig10 opts =
  section "Figure 10: estimating a starting TCP flow";
  let m = micro_testbed ~hosts:4 ~seed:opts.seed () in
  let rolling = Rate_estimator.Rolling.create () in
  let rolling_series = ref [] in
  let planck_series = ref [] in
  let t0 = ref None in
  Collector.set_tap m.collector (fun ~rx ~arrival packet ->
      let s = Collector.sample m.collector ~rx ~arrival packet in
      match s.Collector.seq32 with
      | Some seq32 when s.Collector.payload > 0 ->
          if !t0 = None then t0 := Some s.Collector.rx;
          (match
             Rate_estimator.Rolling.update rolling ~time:s.Collector.rx ~seq32
           with
          | Some rate -> rolling_series := (s.Collector.rx, rate) :: !rolling_series
          | None -> ())
      | _ -> ());
  Collector.on_estimate m.collector (fun _key rate time ->
      planck_series := (time, rate) :: !planck_series);
  ignore (saturating_flow m.tb ~src:0 ~dst:1);
  Engine.run ~until:(Time.ms 14) m.tb.Testbed.engine;
  let base = Option.value ~default:0 !t0 in
  (* Print on a 400 us grid: the rolling series as its min/max within
     each cell (its jitter is sub-cell), Planck as the latest value. *)
  let series l = List.rev !l in
  let cell = Time.us 400 in
  let in_cell series t =
    List.filter_map
      (fun (ts, r) ->
        if ts - base > t - cell && ts - base <= t then Some (Rate.to_gbps r)
        else None)
      series
  in
  let latest_at series t =
    List.fold_left
      (fun acc (ts, r) -> if ts - base <= t then Some r else acc)
      None series
  in
  let grid = List.init 30 (fun i -> (i + 1) * cell) in
  let rows =
    List.map
      (fun t ->
        let rolling_cell = in_cell (series rolling_series) t in
        let rolling =
          match rolling_cell with
          | [] -> "-"
          | xs ->
              Printf.sprintf "%.1f-%.1f"
                (List.fold_left min infinity xs)
                (List.fold_left max neg_infinity xs)
        in
        let planck =
          match latest_at (series planck_series) t with
          | Some r -> Printf.sprintf "%.2f" (Rate.to_gbps r)
          | None -> "-"
        in
        [ Printf.sprintf "%.1f" (ms t); rolling; planck ])
      grid
  in
  Table.print
    ~header:[ "t (ms)"; "rolling min-max (Gbps)"; "Planck (Gbps)" ]
    rows;
  let jitter series =
    let rates = List.map (fun (_, r) -> Rate.to_gbps r) series in
    Stats.stddev rates
  in
  note "stddev: rolling %.2f Gbps vs Planck %.2f Gbps"
    (jitter (series rolling_series))
    (jitter (series planck_series));
  paper "(a) the rolling average swings between 0 and ~12 Gbps during";
  paper "slow start; (b) the burst-clustered estimator ramps smoothly."

(* Ground truth: the same burst-clustered estimator applied to the
   sender's own (tcpdump-style) trace — exactly the paper's method. *)
let ground_truth_series trace key =
  let est = Rate_estimator.create () in
  List.filter_map
    (fun (t, seq, _payload) ->
      match Rate_estimator.update est ~time:t ~seq32:seq with
      | Some rate -> Some (t, rate)
      | None -> None)
    (sends_of_flow trace key)

let mean_relative_error ~truth ~estimates =
  (* Pair each collector estimate with the ground-truth value current
     at its timestamp. *)
  let errors =
    List.filter_map
      (fun (t, est) ->
        let gt =
          List.fold_left
            (fun acc (ts, r) -> if ts <= t then Some r else acc)
            None truth
        in
        match gt with
        | Some gt when gt > 0.0 -> Some (abs_float (est -. gt) /. gt)
        | _ -> None)
      estimates
  in
  Stats.mean errors

let run_fig11 opts =
  section "Figure 11: rate estimation error vs oversubscription factor";
  let duration = if opts.full then Time.ms 80 else Time.ms 40 in
  (* Slow-start transients are excluded: the paper measures established
     flows (sender-side burst timestamps exceed wire rate during the
     ramp, and buffered samples lag it). *)
  let warmup = Time.ms 10 in
  let rows =
    List.map
      (fun flows ->
        let m = micro_testbed ~hosts:28 ~seed:opts.seed () in
        let trace = trace_senders m.tb (List.init flows Fun.id) in
        let estimates = Hashtbl.create 16 in
        Collector.on_estimate m.collector (fun key rate time ->
            Hashtbl.replace estimates key
              ((time, rate)
              :: Option.value ~default:[] (Hashtbl.find_opt estimates key)));
        let handles =
          List.init flows (fun i -> saturating_flow m.tb ~src:i ~dst:(14 + i))
        in
        Engine.run ~until:duration m.tb.Testbed.engine;
        let errors =
          List.filter_map
            (fun f ->
              let key = Flow.key f in
              match Hashtbl.find_opt estimates key with
              | Some ests ->
                  let truth = ground_truth_series trace key in
                  let settled =
                    List.filter (fun (t, _) -> t >= warmup) (List.rev ests)
                  in
                  let err = mean_relative_error ~truth ~estimates:settled in
                  if Float.is_nan err then None else Some err
              | None -> None)
            handles
        in
        [
          Printf.sprintf "%d.0" flows;
          Printf.sprintf "%.1f" (100.0 *. Stats.mean errors);
        ])
      [ 1; 2; 3; 4; 6; 8; 10; 12; 14 ]
  in
  Table.print ~header:[ "factor"; "mean relative error (%)" ] rows;
  paper "roughly constant ~3%% error regardless of oversubscription."

let run opts =
  run_fig10 opts;
  run_fig11 opts
