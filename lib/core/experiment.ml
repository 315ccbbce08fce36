module Time = Planck_util.Time
module Prng = Planck_util.Prng
module Stats = Planck_util.Stats
module Fat_tree = Planck_topology.Fat_tree
module Fabric = Planck_topology.Fabric
module Shard = Planck_netsim.Shard
module Generate = Planck_workloads.Generate
module Runner = Planck_workloads.Runner
module Engine = Planck_netsim.Engine
module Journal = Planck_telemetry.Journal
module Metrics = Planck_telemetry.Metrics
module Export = Planck_telemetry.Export
module Timeseries = Planck_telemetry.Timeseries
module Controller = Planck_controller.Controller

type workload =
  | Stride of int
  | Shuffle of { concurrency : int }
  | Random_bijection
  | Random
  | Staggered_prob of { p_edge : float; p_pod : float }
  | Churn of Generate.churn_spec

let workload_name = function
  | Stride k -> Printf.sprintf "stride(%d)" k
  | Shuffle _ -> "shuffle"
  | Random_bijection -> "random bijection"
  | Random -> "random"
  | Staggered_prob _ -> "staggered prob"
  | Churn _ -> "churn"

type summary = {
  workload : workload;
  scheme_name : string;
  flow_size : int;
  avg_goodput_gbps : float;
  flows : Runner.flow_result list;
  host_done : Time.t option array option;
  reroutes : int;
  all_completed : bool;
}

let pairs_for (testbed : Testbed.t) workload prng =
  let hosts = Testbed.host_count testbed in
  match workload with
  | Stride k -> Generate.stride ~hosts ~k
  | Random_bijection -> Generate.random_bijection prng ~hosts
  | Random -> Generate.random_uniform prng ~hosts
  | Staggered_prob { p_edge; p_pod } -> (
      match testbed.Testbed.spec.Testbed.topology with
      | Testbed.Fat_tree { k } ->
          Generate.staggered_prob prng ~shape:(Fat_tree.shape ~k) ~p_edge
            ~p_pod
      | Testbed.Single_switch _ | Testbed.Jellyfish _ ->
          (* No pod structure: staggered degenerates to uniform. *)
          Generate.random_uniform prng ~hosts)
  | Shuffle _ -> invalid_arg "Experiment.pairs_for: shuffle is not pair-based"
  | Churn _ -> invalid_arg "Experiment.pairs_for: churn is not pair-based"

(* The observers [run] calls on each testbed it builds, outermost
   first, since every run creates its testbed internally; each may
   return a per-flow callback, threaded to the Runner. *)
let observers :
    (Testbed.t -> Scheme.deployed -> (Planck_tcp.Flow.t -> unit) option)
    list
    Atomic.t =
  Atomic.make []

let with_observer f body =
  let outer = Atomic.get observers in
  Atomic.set observers (outer @ [ f ]);
  Fun.protect ~finally:(fun () -> Atomic.set observers outer) body

let phase_marker testbed name detail =
  if Journal.enabled Journal.default then
    Journal.record Journal.default
      ~ts:(Engine.now testbed.Testbed.engine)
      (Journal.Phase_marker { name; detail })

(* Shuffle starts flows mid-run from completion callbacks, and churn
   schedules its launches on the reference engine only: neither is
   shard-aware, even on one shard. *)
let shard_refusal ~shards ~scheme ~workload =
  match shards with
  | None -> None
  | Some n -> (
      match (Scheme.shard_refusal ~shards:n scheme, workload) with
      | (Some _ as refusal), _ -> refusal
      | None, Shuffle _ -> Some "the shuffle workload is not shard-aware"
      | None, Churn _ -> Some "the churn workload is not shard-aware"
      | None, (Stride _ | Random_bijection | Random | Staggered_prob _) -> None)

let run ~spec ~scheme ~workload ~size ?(flow_table = Scheme.Exact) ?horizon
    ?seed () =
  Option.iter
    (fun msg -> invalid_arg ("Experiment.run: " ^ msg))
    (shard_refusal ~shards:spec.Testbed.shards ~scheme ~workload);
  let spec =
    match seed with
    | None -> spec
    | Some seed -> { spec with Testbed.seed = seed }
  in
  let testbed = Testbed.create spec in
  let deployed = Scheme.deploy ~flow_table testbed scheme in
  phase_marker testbed "run_start"
    (Printf.sprintf "%s / %s, %d B flows, seed %d" (workload_name workload)
       (Scheme.name scheme) size spec.Testbed.seed);
  let on_flow =
    match
      List.filter_map
        (fun observe -> observe testbed deployed)
        (Atomic.get observers)
    with
    | [] -> None
    | callbacks -> Some (fun flow -> List.iter (fun f -> f flow) callbacks)
  in
  let wl_prng = Prng.split testbed.Testbed.prng in
  let flows, host_done =
    match workload with
    | Shuffle { concurrency } ->
        let result =
          Runner.run_shuffle testbed.Testbed.engine
            ~endpoints:testbed.Testbed.endpoints
            ~orders:
              (Generate.shuffle_orders wl_prng
                 ~hosts:(Testbed.host_count testbed))
            ~concurrency ~size ?on_flow ?horizon ()
        in
        (result.Runner.flows, Some result.Runner.host_done)
    | Churn churn_spec ->
        (* flow sizes come from the churn spec; [size] is unused *)
        let arrivals =
          Generate.churn wl_prng
            ~hosts:(Testbed.host_count testbed)
            ~spec:churn_spec
        in
        ( Runner.run_churn testbed.Testbed.engine
            ~endpoints:testbed.Testbed.endpoints ~arrivals ?on_flow ?horizon
            (),
          None )
    | Stride _ | Random_bijection | Random | Staggered_prob _ -> (
        let pairs = pairs_for testbed workload wl_prng in
        match testbed.Testbed.shard with
        | None ->
            ( Runner.run_pairs testbed.Testbed.engine
                ~endpoints:testbed.Testbed.endpoints ~pairs ~size ?on_flow
                ?horizon (),
              None )
        | Some group ->
            if Shard.shards group > 1 && Option.is_some on_flow then
              invalid_arg
                "Experiment.run: flow observers (timeseries/trace) read \
                 remote shards; they need --shards 1";
            let fabric = testbed.Testbed.fabric in
            let flows =
              Runner.run_pairs_sharded group
                ~shard_of_src:(Fabric.shard_of_host fabric)
                ~endpoints:testbed.Testbed.endpoints ~pairs ~size ?on_flow
                ?horizon ()
            in
            (* Deterministic journal merge before the run_end marker so
               the merged stream reads exactly like a single-domain
               run's. *)
            Shard.merge_journals group ~into:Journal.default;
            (flows, None))
  in
  let summary =
    {
      workload;
      scheme_name = Scheme.name scheme;
      flow_size = size;
      avg_goodput_gbps = Runner.average_goodput_gbps flows;
      flows;
      host_done;
      reroutes = Scheme.reroutes deployed;
      all_completed = List.for_all (fun r -> r.Runner.completed) flows;
    }
  in
  phase_marker testbed "run_end"
    (Printf.sprintf "avg %.3f Gbps, %d reroutes, all_completed=%b"
       summary.avg_goodput_gbps summary.reroutes summary.all_completed);
  summary

let repeat ~runs ~spec ~scheme ~workload ~size ?flow_table ?horizon () =
  List.init runs (fun i ->
      run ~spec ~scheme ~workload ~size ?flow_table ?horizon
        ~seed:(spec.Testbed.seed + i) ())

let mean_avg_goodput summaries =
  Stats.mean (List.map (fun s -> s.avg_goodput_gbps) summaries)

let with_outputs ?metrics_out ?journal_out ?timeseries_out
    ?timeseries_interval body =
  match
    List.iter
      (Option.iter (fun path -> Export.write_file ~path ""))
      [ metrics_out; journal_out; timeseries_out ]
  with
  | exception Sys_error msg -> Error ("cannot write " ^ msg)
  | () ->
      let metrics_on = Metrics.enabled Metrics.default
      and journal_on = Journal.enabled Journal.default in
      if metrics_out <> None then Metrics.set_enabled Metrics.default true;
      if journal_out <> None then Journal.set_enabled Journal.default true;
      (* Stream journal events as they record: the in-memory ring is only
         a bounded tail, the NDJSON file is complete. *)
      let lines = ref 0 in
      let channel =
        Option.map
          (fun path ->
            let oc = open_out path in
            Journal.set_writer Journal.default
              (Some
                 (fun line ->
                   incr lines;
                   output_string oc line;
                   output_char oc '\n'));
            oc)
          journal_out
      in
      let recorders = ref 0 and last = ref None in
      let record testbed (deployed : Scheme.deployed) =
        let estimate =
          Option.fold ~none:(fun _ -> None) ~some:Controller.flow_rate
            deployed.Scheme.controller
        in
        let recorder =
          Recorder.create ?interval:timeseries_interval ~estimate testbed
        in
        incr recorders;
        last := Some recorder;
        Some (Recorder.track_flow recorder)
      in
      let result =
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_enabled Metrics.default metrics_on;
            Journal.set_enabled Journal.default journal_on;
            Option.iter
              (fun oc ->
                Journal.set_writer Journal.default None;
                close_out oc)
              channel)
          (fun () ->
            if timeseries_out = None then body ()
            else with_observer record body)
      in
      Option.iter
        (fun path ->
          Printf.printf "wrote %d journal events to %s\n%!" !lines path)
        journal_out;
      Option.iter
        (fun path ->
          match !last with
          | None ->
              Printf.printf
                "no time-series recorded (nothing ran through \
                 Experiment.run)\n%!"
          | Some recorder ->
              let ts = Recorder.timeseries recorder in
              Export.write_file ~path (Timeseries.to_csv ts);
              Printf.printf "wrote %d time-series rows (%d series%s) to %s\n%!"
                (List.length (Timeseries.rows ts))
                (List.length (Timeseries.names ts))
                (if !recorders > 1 then ", last run" else "")
                path)
        timeseries_out;
      Option.iter
        (fun path ->
          Export.write_file ~path (Export.metrics_json Metrics.default);
          Printf.printf "wrote %d metrics to %s\n%!"
            (Metrics.size Metrics.default)
            path)
        metrics_out;
      Ok result
