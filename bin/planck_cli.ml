(* planck-cli: inspect topologies, run workload/scheme experiments, and
   capture switch vantage points from the command line.

     dune exec bin/planck_cli.exe -- topology
     dune exec bin/planck_cli.exe -- run --workload stride8 --scheme planck-te
     dune exec bin/planck_cli.exe -- capture --output /tmp/sw0.pcap
*)

module Time = Planck_util.Time
module Table = Planck_util.Table
module Mac = Planck_packet.Mac
module Engine = Planck_netsim.Engine
module Fabric = Planck_topology.Fabric
module Routing = Planck_topology.Routing
module Collector = Planck_collector.Collector
module Te = Planck_controller.Te
module Reroute = Planck_controller.Reroute
module Metrics = Planck_telemetry.Metrics
module Export = Planck_telemetry.Export
module Journal = Planck_telemetry.Journal
module Timeseries = Planck_telemetry.Timeseries
module Inspect = Planck_telemetry.Inspect
module Reporter = Planck_telemetry.Reporter
module Json = Planck_telemetry.Json
module Stats = Planck_util.Stats
module Sampler = E2e_bench.Sampler
module Layer = E2e_bench.Layer
open Planck

(* The exit code of a body run under [Experiment.with_outputs]. *)
let exit_code = function
  | Ok code -> code
  | Error msg ->
      Printf.eprintf "planck-cli: %s\n" msg;
      1

(* ---- topology subcommand ---- *)

let show_topology k seed =
  let tb = Testbed.create { (Testbed.paper_fat_tree ~seed ()) with
                            Testbed.topology = Testbed.Fat_tree { k } } in
  let fabric = tb.Testbed.fabric in
  let hosts = Fabric.host_count fabric
  and alts = Routing.alts tb.Testbed.routing in
  Printf.printf
    "fat-tree k=%d: %d switches, %d hosts, %d routes (%d destinations x %d \
     alternates)\n"
    k (Fabric.switch_count fabric) hosts (hosts * alts) hosts alts;
  for sw = 0 to Fabric.switch_count fabric - 1 do
    let ports =
      String.concat " "
        (List.map
           (fun port ->
             match Fabric.peer fabric ~switch:sw ~port with
             | Fabric.To_host h -> Printf.sprintf "p%d:h%d" port h
             | Fabric.To_switch (s, p) -> Printf.sprintf "p%d:s%d.%d" port s p
             | Fabric.To_monitor -> Printf.sprintf "p%d:monitor" port
             | Fabric.Unwired -> Printf.sprintf "p%d:-" port)
           (List.init (Fabric.switch_ports fabric) Fun.id))
    in
    Printf.printf "  s%-2d %s\n" sw ports
  done;
  (* Alternate routes for one cross-pod pair. *)
  let src = 0 and dst = hosts / 2 in
  Printf.printf "routes h%d -> h%d:\n" src dst;
  for alt = 0 to Routing.alts tb.Testbed.routing - 1 do
    let mac = Routing.mac_for tb.Testbed.routing ~dst ~alt in
    let hops = Routing.path tb.Testbed.routing ~src ~dst_mac:mac in
    Printf.printf "  alt %d (%s): %s\n" alt (Mac.to_string mac)
      (String.concat " -> "
         (List.map (fun h -> Printf.sprintf "s%d" h.Routing.switch) hops))
  done;
  0

(* ---- run subcommand ---- *)

let parse_workload = function
  | "stride8" -> Ok (Experiment.Stride 8)
  | "stride4" -> Ok (Experiment.Stride 4)
  | "shuffle" -> Ok (Experiment.Shuffle { concurrency = 2 })
  | "bijection" -> Ok Experiment.Random_bijection
  | "random" -> Ok Experiment.Random
  | "staggered" ->
      Ok (Experiment.Staggered_prob { p_edge = 0.2; p_pod = 0.3 })
  | "churn" -> Ok (Experiment.Churn Planck_workloads.Generate.default_churn)
  | s -> Error (Printf.sprintf "unknown workload %s" s)

let parse_flow_table = function
  | "exact" -> Ok Scheme.Exact
  | "tiered" -> Ok Scheme.tiered_default
  | s -> Error (Printf.sprintf "unknown flow table %s" s)

let parse_scheme = function
  | "static" -> Ok (`Fabric Scheme.Static)
  | "planck-te" | "planck" -> Ok (`Fabric Scheme.planck_te_default)
  | "planck-te-openflow" ->
      Ok
        (`Fabric
           (Scheme.Planck_te
              { Te.default_config with Te.mechanism = Reroute.Openflow }))
  | "poll-1s" -> Ok (`Fabric Scheme.poll_1s)
  | "poll-100ms" -> Ok (`Fabric Scheme.poll_100ms)
  | "sflow-te" -> Ok (`Fabric Scheme.sflow_te_default)
  | "optimal" -> Ok `Optimal
  | s -> Error (Printf.sprintf "unknown scheme %s" s)

(* --profile: the SIGPROF sampler charges each CPU tick to the lib/
   layer on top of the stack. It touches no simulator state, so a
   sampled run costs what an unsampled one does. The table prints after
   the run; with --metrics-out the counts also land in the snapshot as
   profile.cpu_samples{<layer>}, which [inspect --profile] re-renders. *)
let profile_report profile =
  if profile then begin
    Sampler.stop ();
    let samples =
      List.combine (Array.to_list Layer.all)
        (Array.to_list (Sampler.snapshot ()))
    in
    List.iter
      (fun (layer, n) ->
        Metrics.Counter.add
          (Metrics.counter ~subsystem:"profile" ~name:"cpu_samples"
             ~label:layer ())
          n)
      samples;
    Printf.printf "\nCPU samples by layer:\n%s"
      (Inspect.render_cpu_samples samples)
  end

let run_experiment () workload_name scheme_name flow_table_name size_mib runs
    seed shards csv metrics_out journal_out timeseries_out
    timeseries_interval_us profile =
  (* Runs that cannot go on [shards] domains are refused here, before
     [with_outputs] opens (and truncates) any path. The time-series
     recorder samples every flow, and a flow on another shard's domain
     cannot be read while that domain runs. *)
  let refusal workload scheme =
    let scheme =
      match scheme with `Fabric s -> s | `Optimal -> Scheme.Static
    in
    match Experiment.shard_refusal ~shards ~scheme ~workload with
    | Some msg -> Some ("planck-cli: " ^ msg)
    | None
      when Option.is_some timeseries_out
           && Option.fold ~none:false ~some:(fun n -> n > 1) shards ->
        Some "planck-cli: --timeseries-out needs --shards 1 or no --shards"
    | None -> None
  in
  match
    match
      ( parse_workload workload_name,
        parse_scheme scheme_name,
        parse_flow_table flow_table_name )
    with
    | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
    | Ok workload, Ok scheme, Ok flow_table -> (
        match refusal workload scheme with
        | Some e -> Error e
        | None -> Ok (workload, scheme, flow_table))
  with
  | Error e ->
      prerr_endline e;
      1
  | Ok (workload, scheme, flow_table) ->
      exit_code
      @@ Experiment.with_outputs ?metrics_out ?journal_out ?timeseries_out
           ~timeseries_interval:(Time.us timeseries_interval_us)
      @@ fun () ->
      if profile then Sampler.start ();
      let spec, sch =
        match scheme with
        | `Fabric s -> (Testbed.paper_fat_tree ~seed (), s)
        | `Optimal -> (Testbed.optimal ~seed (), Scheme.Static)
      in
      (* --shards: run on a Shard group. The fat-tree's agg-core links
         get the default core delay at ANY shard count (including 1) so
         runs stay comparable across shard counts — the delay is the
         conservative-lookahead window, and 300 ns of edge delay would
         make the lockstep rounds absurdly fine. *)
      let spec =
        match shards with
        | None -> spec
        | Some n ->
            {
              spec with
              Testbed.shards = Some n;
              core_prop_delay =
                (match spec.Testbed.topology with
                | Testbed.Fat_tree _ ->
                    Some Planck_topology.Fat_tree.default_core_prop_delay
                | Testbed.Single_switch _ | Testbed.Jellyfish _ -> None);
            }
      in
      let summaries =
        Experiment.repeat ~runs ~spec ~scheme:sch ~workload
          ~size:(size_mib * 1024 * 1024) ~flow_table ~horizon:(Time.s 600) ()
      in
      let header =
        [ "run"; "avg_gbps"; "reroutes"; "all_completed"; "flows" ]
      in
      let rows =
        List.mapi
          (fun i s ->
            [
              string_of_int i;
              Printf.sprintf "%.3f" s.Experiment.avg_goodput_gbps;
              string_of_int s.Experiment.reroutes;
              string_of_bool s.Experiment.all_completed;
              string_of_int (List.length s.Experiment.flows);
            ])
          summaries
      in
      if csv then print_string (Table.csv ~header rows)
      else begin
        Printf.printf "%s / %s, %s flow table, %d MiB flows, %d run(s):\n"
          workload_name scheme_name
          (Scheme.flow_table_name flow_table)
          size_mib runs;
        Table.print ~header rows;
        Printf.printf "mean average flow throughput: %.3f Gbps\n"
          (Experiment.mean_avg_goodput summaries)
      end;
      profile_report profile;
      0

(* ---- capture subcommand ---- *)

let capture output duration_ms seed metrics_out profile =
  exit_code
  @@ Experiment.with_outputs ?metrics_out
  @@ fun () ->
  if profile then Sampler.start ();
  let tb = Testbed.create (Testbed.paper_fat_tree ~seed ()) in
  let collector =
    Collector.create tb.Testbed.engine ~switch:0 ~routing:tb.Testbed.routing
      ~link_rate:(Testbed.link_rate tb) ()
  in
  Collector.attach collector;
  Collector.capture collector ~capacity:8192;
  (* Keep the snapshot file fresh while the capture runs: rewrite it
     every simulated millisecond on the engine's own clock. *)
  Option.iter
    (fun path ->
      Engine.every tb.Testbed.engine ~period:(Time.ms 1) (fun () ->
          Export.write_file ~path (Export.metrics_json Metrics.default)))
    metrics_out;
  (* Some background traffic through switch 0 (an edge switch). *)
  ignore
    (Planck_tcp.Flow.start ~src:tb.Testbed.endpoints.(0)
       ~dst:tb.Testbed.endpoints.(12) ~src_port:40_000 ~dst_port:5_012
       ~size:(1 lsl 30) ());
  ignore
    (Planck_tcp.Flow.start ~src:tb.Testbed.endpoints.(1)
       ~dst:tb.Testbed.endpoints.(2) ~src_port:40_001 ~dst_port:5_002
       ~size:(1 lsl 30) ());
  Engine.run ~until:(Time.ms duration_ms) tb.Testbed.engine;
  let pcap = Collector.vantage_pcap collector in
  let oc = open_out_bin output in
  output_string oc pcap;
  close_out oc;
  Printf.printf "wrote %d samples (%d bytes) to %s\n"
    (Collector.vantage_count collector)
    (String.length pcap) output;
  profile_report profile;
  0

(* ---- inspect subcommand ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fmt_stage = function
  | None -> "-"
  | Some t -> Printf.sprintf "%+.0fus" (Time.to_float_us t)

let fmt_delta a b =
  match (a, b) with Some a, Some b -> fmt_stage (Some (b - a)) | _ -> "-"

(* Per-loop stage table: each stage column shows the delta from the
   previous stage, [total] the detect->effective sum — the Fig 12/15
   decomposition, one row per correlated reroute. *)
let print_loops loops =
  let rerouted, silent =
    List.partition (fun (l : Inspect.loop) -> l.Inspect.flow <> None) loops
  in
  let header =
    [ "corr"; "flow"; "detect"; "notify"; "decide"; "install"; "effective";
      "total" ]
  in
  let rows =
    List.map
      (fun (l : Inspect.loop) ->
        [
          string_of_int l.Inspect.corr;
          Option.value l.Inspect.flow ~default:"-";
          Printf.sprintf "%.3fms" (Time.to_float_ms l.Inspect.detect);
          fmt_delta (Some l.Inspect.detect) l.Inspect.notify;
          fmt_delta l.Inspect.notify l.Inspect.decide;
          fmt_delta l.Inspect.decide l.Inspect.install;
          fmt_delta l.Inspect.install l.Inspect.effective;
          (match Inspect.total l with
          | Some t -> Printf.sprintf "%.3fms" (Time.to_float_ms t)
          | None -> "incomplete");
        ])
      rerouted
  in
  if rows <> [] then Table.print ~header rows;
  if silent <> [] then
    Printf.printf
      "(%d congestion detection(s) produced no reroute: cooldown, no better \
       path, or flow already moved)\n"
      (List.length silent)

let print_percentiles loops =
  let n = List.length (List.filter Inspect.complete loops) in
  if n > 0 then begin
    Printf.printf "\nstage percentiles over %d complete loop(s), ms:\n" n;
    let header = [ "stage"; "p10"; "p50"; "p90" ] in
    let rows =
      List.filter_map
        (fun (stage, ms) ->
          if ms = [] then None
          else
            Some
              [
                stage;
                Printf.sprintf "%.3f" (Stats.percentile 10.0 ms);
                Printf.sprintf "%.3f" (Stats.percentile 50.0 ms);
                Printf.sprintf "%.3f" (Stats.percentile 90.0 ms);
              ])
        (Inspect.stage_durations loops)
    in
    Table.print ~header rows
  end

let print_flaps events =
  match Inspect.flap_counts events with
  | [] -> ()
  | flaps ->
      let flapping = List.filter (fun (_, n) -> n > 1) flaps in
      Printf.printf
        "\nreroutes: %d decision(s) across %d flow(s); %d flow(s) flapped \
         (>1 reroute)\n"
        (List.fold_left (fun acc (_, n) -> acc + n) 0 flaps)
        (List.length flaps) (List.length flapping);
      List.iter
        (fun (flow, n) -> Printf.printf "  %-40s rerouted %d times\n" flow n)
        flapping

let print_estimate_errors names rows =
  match Inspect.estimate_errors ~names ~rows with
  | [] ->
      print_endline
        "\nno true:/est: flow columns in the time-series (run with \
         --timeseries-out while a scheme with collectors is deployed)"
  | errors ->
      Printf.printf "\nestimate vs truth (mean relative error where true \
                     rate > 0.05 Gbps):\n";
      List.iter
        (fun (flow, err) ->
          Printf.printf "  %-40s %.1f%%\n" flow (100.0 *. err))
        errors

let print_phases events =
  let phases =
    List.filter_map
      (fun (ev : Journal.event) ->
        match ev.Journal.body with
        | Journal.Phase_marker { name; detail } ->
            Some (ev.Journal.ts, name, detail)
        | _ -> None)
      events
  in
  if phases <> [] then begin
    print_endline "\nphases:";
    List.iter
      (fun (ts, name, detail) ->
        Printf.printf "  %10.3fms %-12s %s\n" (Time.to_float_ms ts) name
          detail)
      phases
  end

(* The Chrome/Perfetto timeline is a view of the journal, rendered
   offline: a streamed NDJSON journal holds every loop event, where an
   in-memory ring would have evicted the early ones. *)
let write_chrome_trace path events loops =
  match Export.write_file ~path (Inspect.chrome_trace events) with
  | exception Sys_error msg ->
      Printf.eprintf "planck-cli: cannot write %s\n" msg;
      1
  | () ->
      Printf.printf
        "\nwrote a Chrome trace of %d control loop(s) to %s (open in \
         chrome://tracing or ui.perfetto.dev)\n"
        (List.length
           (List.sort_uniq Int.compare
              (List.map (fun (l : Inspect.loop) -> l.Inspect.corr) loops)))
        path;
      0

let inspect_journal journal_path timeseries_path trace_path =
  match Journal.of_ndjson (read_file journal_path) with
  | exception Sys_error msg ->
      Printf.eprintf "planck-cli: %s\n" msg;
      1
  | Error e ->
      Printf.eprintf "planck-cli: %s: %s\n" journal_path e;
      1
  | Ok events ->
      Printf.printf "journal: %d events from %s\n" (List.length events)
        journal_path;
      List.iter
        (fun (name, n) -> Printf.printf "  %-20s %d\n" name n)
        (Inspect.count_events events);
      let loops = Inspect.loops events in
      if loops = [] then
        print_endline
          "\nno correlated control loops (no congestion events recorded)"
      else begin
        Printf.printf
          "\ncontrol loops (detect -> notify -> decide -> install -> \
           effective):\n";
        print_loops loops;
        print_percentiles loops
      end;
      print_flaps events;
      print_phases events;
      (match timeseries_path with
      | None -> ()
      | Some path -> (
          match Timeseries.of_csv (read_file path) with
          | exception Sys_error msg -> Printf.eprintf "planck-cli: %s\n" msg
          | Error e -> Printf.eprintf "planck-cli: %s: %s\n" path e
          | Ok (names, rows) ->
              Printf.printf "\ntime-series: %d rows x %d series from %s\n"
                (List.length rows) (List.length names) path;
              print_estimate_errors names rows));
      match trace_path with
      | None -> 0
      | Some path -> write_chrome_trace path events loops

(* Offline CPU-sample table from the --metrics-out snapshot of a
   run/capture --profile. *)
let inspect_profile path =
  match Json.of_string (read_file path) with
  | exception Sys_error msg ->
      Printf.eprintf "planck-cli: %s\n" msg;
      1
  | Error e ->
      Printf.eprintf "planck-cli: %s: %s\n" path e;
      1
  | Ok doc -> (
      match Inspect.cpu_samples_of_metrics_json doc with
      | Error e ->
          Printf.eprintf "planck-cli: %s: %s\n" path e;
          1
      | Ok samples ->
          Printf.printf "CPU samples by layer from %s:\n%s" path
            (Inspect.render_cpu_samples samples);
          0)

let inspect () journal_path timeseries_path trace_path profile_path =
  match (journal_path, profile_path) with
  | None, None ->
      Printf.eprintf
        "planck-cli: inspect needs a JOURNAL argument and/or --profile FILE\n";
      1
  | None, Some _ when trace_path <> None ->
      Printf.eprintf "planck-cli: inspect --trace-out needs a JOURNAL\n";
      1
  | journal, profile ->
      let codes =
        List.concat
          [
            (match profile with
            | Some path -> [ inspect_profile path ]
            | None -> []);
            (match journal with
            | Some path -> [ inspect_journal path timeseries_path trace_path ]
            | None -> []);
          ]
      in
      List.fold_left max 0 codes

(* ---- cmdliner wiring ---- *)

open Cmdliner

(* Shared Logs reporter: sim time + source prefix (satisfied by the
   simulation clock once a Testbed exists). --debug is shorthand for
   --log-level debug. *)
let setup_logs debug level =
  let level = if debug then Some Logs.Debug else level in
  Reporter.install ~level ()

let level_conv =
  let parse s =
    match Reporter.level_of_string s with
    | Ok l -> Ok l
    | Error e -> Error (`Msg e)
  in
  let print ppf l = Format.pp_print_string ppf (Logs.level_to_string l) in
  Arg.conv (parse, print)

let debug_arg =
  let debug =
    let doc = "Print controller/collector debug logs (= --log-level debug)." in
    Arg.(value & flag & info [ "debug" ] ~doc)
  in
  let log_level =
    let doc = "Log verbosity: off|error|warning|info|debug." in
    Arg.(
      value
      & opt level_conv (Some Logs.Warning)
      & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  Term.(const setup_logs $ debug $ log_level)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Enable telemetry and write the metric snapshot as JSON.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Sample the CPU with SIGPROF and print the share of samples \
           per simulator layer after the run; with --metrics-out the \
           counts also land in the snapshot for $(b,inspect --profile).")

let topology_cmd =
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:"Fat-tree arity.") in
  Cmd.v
    (Cmd.info "topology" ~doc:"Print the fat-tree wiring and alternate routes")
    Term.(const show_topology $ k $ seed_arg)

let run_cmd =
  let workload =
    Arg.(
      value & opt string "stride8"
      & info [ "workload" ]
          ~doc:"stride8|stride4|shuffle|bijection|random|staggered|churn")
  in
  let flow_table =
    Arg.(
      value & opt string "exact"
      & info [ "flow-table" ]
          ~doc:
            "Collector flow-state backend: $(b,exact) (the paper's \
             per-flow table) or $(b,tiered) (count-min sketch with \
             heavy-hitter promotion, bounded resident state).")
  in
  let scheme =
    Arg.(
      value & opt string "planck-te"
      & info [ "scheme" ]
          ~doc:
            "static|planck-te|planck-te-openflow|poll-1s|poll-100ms|sflow-te|optimal")
  in
  let size =
    Arg.(value & opt int 50 & info [ "size-mib" ] ~doc:"Flow size in MiB.")
  in
  let runs = Arg.(value & opt int 1 & info [ "runs" ] ~doc:"Repetitions.") in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run the simulation on $(docv) OCaml domains (one per-shard \
             event loop, conservative-lookahead synchronization; see \
             DESIGN.md). Requires a shard-safe scheme/workload: \
             $(b,static) with a pair-based workload. $(b,--shards 1) \
             runs the same event sequence on one spawned domain. On a \
             fat-tree the agg-core links get the 5 us default core \
             delay at any N, so shard counts stay comparable.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"CSV output.") in
  let journal_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-out" ] ~docv:"FILE"
          ~doc:
            "Enable the flight-recorder journal and stream it as NDJSON \
             (one event per line; analyze with $(b,planck-cli inspect)).")
  in
  let timeseries_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeseries-out" ] ~docv:"FILE"
          ~doc:
            "Record ground-truth time-series (link Gbps, buffer bytes, true \
             vs estimated flow rates) as CSV; with --runs > 1 the last run \
             is written.")
  in
  let timeseries_interval =
    Arg.(
      value & opt int 500
      & info [ "timeseries-interval-us" ] ~docv:"US"
          ~doc:"Time-series sampling interval, microseconds.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload under a routing scheme")
    Term.(
      const run_experiment $ debug_arg $ workload $ scheme $ flow_table $ size
      $ runs $ seed_arg $ shards $ csv $ metrics_out_arg $ journal_out
      $ timeseries_out $ timeseries_interval $ profile_arg)

let capture_cmd =
  let output =
    Arg.(
      value
      & opt string "/tmp/planck-capture.pcap"
      & info [ "output"; "o" ] ~doc:"Output pcap path.")
  in
  let duration =
    Arg.(value & opt int 10 & info [ "duration-ms" ] ~doc:"Capture length.")
  in
  Cmd.v
    (Cmd.info "capture" ~doc:"Dump a switch vantage point to pcap")
    Term.(
      const capture $ output $ duration $ seed_arg $ metrics_out_arg
      $ profile_arg)

let inspect_cmd =
  let journal =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:
            "NDJSON journal written by $(b,run --journal-out). Optional \
             when --profile is given.")
  in
  let timeseries =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeseries" ] ~docv:"FILE"
          ~doc:
            "Time-series CSV written by $(b,run --timeseries-out); adds \
             estimate-vs-truth error summaries.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Render the journal as a Chrome trace_event JSON (open in \
             chrome://tracing or ui.perfetto.dev): one control_loop span \
             per correlation id, plus an instant per loop stage and \
             phase marker.")
  in
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Metrics snapshot written by $(b,run --profile --metrics-out) \
             or $(b,capture --profile --metrics-out); prints its CPU \
             samples by layer.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Analyze a flight-recorder journal: per-loop control stage \
          breakdowns, reroute flaps, estimate accuracy, a Chrome/Perfetto \
          timeline, CPU samples by layer")
    Term.(
      const inspect $ debug_arg $ journal $ timeseries $ trace_out $ profile)

let () =
  let doc = "Planck (SIGCOMM 2014 reproduction) command-line tool" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "planck-cli" ~doc)
          [ topology_cmd; run_cmd; capture_cmd; inspect_cmd ]))
