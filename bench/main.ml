(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index), plus Bechamel
   microbenchmarks of the hot paths.

     dune exec bench/main.exe                 # everything, reduced scale
     dune exec bench/main.exe -- fig14 fig17  # a subset
     dune exec bench/main.exe -- --full       # paper-scale (slow)
     dune exec bench/main.exe -- --list       # what exists
     dune exec bench/main.exe -- fig15 --json out.json   # machine-readable
     dune exec bench/main.exe -- fig13 --journal-out j.ndjson  # journal
     dune exec bin/planck_cli.exe -- inspect j.ndjson --trace-out t.json
*)

module Json = Planck_telemetry.Json
module Export = Planck_telemetry.Export
module Time = Planck.Util.Time

let experiments : (string * string * (Exp_common.opts -> unit)) list =
  [
    ( "table1",
      "measurement speed comparison (Planck vs published systems)",
      Exp_table1.run );
    ( "fig2-4",
      "impact of oversubscribed mirroring on loss/latency/throughput",
      Exp_mirror_impact.run );
    ("fig5-7", "sample burst and inter-arrival structure", Exp_samples.run);
    ( "fig8-9",
      "sample latency under congestion and vs oversubscription (+ fig12)",
      Exp_latency.run );
    ( "fig10-11",
      "throughput estimation: smoothing and accuracy",
      Exp_estimation.run );
    ( "fig13-16",
      "shadow-MAC routes, control-loop timeline, ARP vs OpenFlow",
      Exp_reroute.run );
    ("fig14-18", "traffic-engineering evaluation", Exp_te.run);
    ( "sec9-1",
      "scalability plan: collectors per datacenter",
      Exp_scalability.run );
    ( "ablations",
      "design-choice ablations (arbitration, buffers, estimator, TE)",
      Exp_ablations.run );
    ( "bounded-state",
      "sketch tier vs exact flow table: state at 1M flows, accuracy, TE \
       agreement",
      Exp_bounded_state.run );
  ]

let run_selected ?(skip_experiments = false) ?(only = []) ?recheck ~outputs
    names opts with_micro =
  let t0 = Unix.gettimeofday () in
  let selected =
    match names with
    | _ when skip_experiments -> []
    | [] -> experiments
    | names ->
        List.filter
          (fun (name, _, _) ->
            List.exists
              (fun n ->
                n = name
                || (String.length n < String.length name
                    && String.sub name 0 (String.length n) = n))
              names)
          experiments
  in
  if selected = [] && not with_micro then begin
    Printf.eprintf "no experiment matches %s\n" (String.concat ", " names);
    exit 1
  end;
  (* The outputs record the experiments only: the micros time hot paths
     with telemetry off and no observer (the sharded speedup row refuses
     flow observers). *)
  let timed =
    outputs @@ fun () ->
    List.map
      (fun (name, _, run) ->
        let t = Unix.gettimeofday () in
        let ok =
          try
            run opts;
            true
          with exn ->
            Printf.printf "  [%s FAILED: %s]\n%!" name (Printexc.to_string exn);
            false
        in
        let wall = Unix.gettimeofday () -. t in
        Printf.printf "  [%s took %.1fs]\n%!" name wall;
        (name, wall, ok))
      selected
  in
  let micro = if with_micro then Micro.run ~only ?recheck () else [] in
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\nTotal wall time: %.1fs\n%!" total;
  (timed, total, micro)

(* The machine-readable emitter behind --json: one document per
   invocation, so perf trajectories (BENCH_*.json) can accumulate
   across PRs. The telemetry snapshot goes to --metrics-out, not here. *)
let emit_json path timed total micro =
  let doc =
    Json.Obj
      [
        ( "id",
          Json.String
            (String.concat "+" (List.map (fun (name, _, _) -> name) timed)) );
        ( "experiments",
          Json.List
            (List.map
               (fun (name, wall, ok) ->
                 Json.Obj
                   [
                     ("id", Json.String name);
                     ("wall_time", Json.Float wall);
                     ("ok", Json.Bool ok);
                   ])
               timed) );
        ("micro", Bench_gate.rows_to_json micro);
        ("wall_time", Json.Float total);
      ]
  in
  Export.write_file ~path (Json.to_string doc);
  Printf.printf "wrote bench results to %s\n%!" path

open Cmdliner

let names =
  let doc =
    "Experiments to run (prefix match), e.g. fig14. Default: all."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let runs =
  let doc = "Repetitions for multi-run experiments." in
  Arg.(value & opt int Exp_common.default_opts.Exp_common.runs
       & info [ "runs" ] ~doc)

let full =
  let doc =
    "Use paper-scale parameters (15-run averages, up to multi-GiB flows). \
     Slow: expect hours."
  in
  Arg.(value & flag & info [ "full" ] ~doc)

let seed =
  let doc = "Base random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let list_flag =
  let doc = "List available experiments and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let micro_flag =
  let doc = "Also run the Bechamel microbenchmarks." in
  Arg.(value & flag & info [ "micro" ] ~doc)

let json_out =
  let doc =
    "Write a machine-readable summary {id, experiments, micro, wall_time} \
     to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc = "Enable telemetry and write the metric snapshot as JSON." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let journal_out =
  let doc =
    "Enable the flight-recorder journal and stream every event (drops, \
     congestion, reroute stages, ...) across all selected experiments as \
     NDJSON to $(docv); analyse with 'planck-cli inspect', which also \
     renders it as a Chrome/Perfetto timeline (--trace-out)."
  in
  Arg.(value & opt (some string) None & info [ "journal-out" ] ~docv:"FILE" ~doc)

let timeseries_out =
  let doc =
    "Record ground-truth time-series (link utilization, buffers, true vs \
     estimated flow rates) for each experiment run and write the last run's \
     CSV to $(docv)."
  in
  Arg.(value & opt (some string) None
       & info [ "timeseries-out" ] ~docv:"FILE" ~doc)

let timeseries_interval_us =
  let doc = "Sampling interval for --timeseries-out, microseconds." in
  Arg.(value & opt int 500 & info [ "timeseries-interval-us" ] ~docv:"US" ~doc)

let only_micros =
  let doc =
    "Run only the microbenchmark with this id (see --json row ids). \
     Repeatable; applies to --micro and --check."
  in
  Arg.(value & opt_all string [] & info [ "only" ] ~docv:"ID" ~doc)

let check_flag =
  let doc =
    "Run the microbenchmarks and gate them against a committed baseline \
     (--against, or the latest BENCH_*.json under --bench-dir): exit \
     non-zero if any row regressed beyond its tolerance band, went \
     missing, or lost its estimate. Implies --micro; experiments are \
     skipped unless named. Set PLANCK_BENCH_NO_GATE=1 to report without \
     enforcing (noisy runners)."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let against =
  let doc = "Baseline BENCH_N.json for --check (default: latest committed)." in
  Arg.(value & opt (some string) None & info [ "against" ] ~docv:"FILE" ~doc)

let tolerance =
  let doc =
    "Default fractional tolerance band for --check (0.15 = +/-15%)."
  in
  Arg.(value & opt float 0.15 & info [ "tolerance" ] ~docv:"FRAC" ~doc)

let noise_floor =
  let doc =
    "Absolute allowance in ns added on both sides of the --check band \
     (sub-50ns rows sit at clock granularity, where a few ns of jitter \
     exceeds any percentage)."
  in
  Arg.(value & opt float 5.0 & info [ "noise-floor" ] ~docv:"NS" ~doc)

let tolerance_overrides =
  let doc =
    "Per-row tolerance override for --check, e.g. \
     switch-forward-mirror=0.30. Repeatable."
  in
  Arg.(
    value
    & opt_all string []
    & info [ "tolerance-override" ] ~docv:"ID=FRAC" ~doc)

let bench_dir =
  let doc = "Directory holding the committed BENCH_*.json trajectory." in
  Arg.(value & opt string "." & info [ "bench-dir" ] ~docv:"DIR" ~doc)

let trend_flag =
  let doc =
    "Render a markdown trend table across every committed BENCH_*.json \
     under --bench-dir and exit (runs nothing)."
  in
  Arg.(value & flag & info [ "trend" ] ~doc)

let trend_out =
  let doc = "Like --trend but write the markdown to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trend-out" ] ~docv:"FILE" ~doc)

let main names runs full seed list_experiments with_micro json_path
    metrics_path journal_path timeseries_path
    timeseries_interval_us only check against_path tolerance noise_floor_ns
    tolerance_overrides bench_dir trend trend_out =
  let with_micro = with_micro || check in
  let overrides =
    List.map
      (fun s ->
        match Bench_gate.parse_override s with
        | Ok entry -> entry
        | Error e ->
            Printf.eprintf "planck-bench --tolerance-override: %s\n" e;
            Stdlib.exit 1)
      tolerance_overrides
  in
  if trend || trend_out <> None then begin
    match Bench_gate.trend ~dir:bench_dir with
    | Error e ->
        Printf.eprintf "planck-bench --trend: %s\n" e;
        Stdlib.exit 1
    | Ok md -> (
        match trend_out with
        | Some path ->
            Export.write_file ~path md;
            Printf.printf "wrote trend table to %s\n%!" path
        | None -> print_string md)
  end
  else if list_experiments then begin
    List.iter
      (fun (name, doc, _) -> Printf.printf "%-10s %s\n" name doc)
      experiments;
    Printf.printf "%-10s %s\n" "(--micro)" "Bechamel hot-path microbenchmarks"
  end
  else begin
    (* Probe --json before spending minutes on experiments; the other
       outputs are probed by [Experiment.with_outputs]. *)
    let fail msg =
      Printf.eprintf "planck-bench: %s\n" msg;
      exit 1
    in
    Option.iter
      (fun path ->
        try Export.write_file ~path ""
        with Sys_error msg -> fail ("cannot write " ^ msg))
      json_path;
    let opts =
      {
        Exp_common.runs;
        full;
        seed;
        verbose = false;
      }
    in
    (* --check loads its baseline before spending minutes on the micros,
       so regressed rows can be re-measured inside Micro.run. *)
    let baseline =
      if not check then None
      else
        let path =
          match against_path with
          | Some path -> Some path
          | None -> Bench_gate.latest_bench ~dir:bench_dir
        in
        match path with
        | None ->
            Printf.eprintf "planck-bench --check: no BENCH_*.json under %s\n"
              bench_dir;
            Stdlib.exit 1
        | Some path -> (
            match Bench_gate.load_rows ~path with
            | Error e ->
                Printf.eprintf "planck-bench --check: %s\n" e;
                Stdlib.exit 1
            | Ok rows -> Some (path, rows))
    in
    let compare ~baseline current =
      Bench_gate.compare_rows ~tolerance ~noise_floor_ns ~overrides ~baseline
        ~current ()
    in
    (* A shared box can be in a slow scheduler/frequency state for a
       whole measurement window, so give rows that regressed one
       re-measure before failing: noise recovers, a real regression
       fails twice. *)
    let recheck =
      Option.map
        (fun (_, baseline) rows ->
          List.filter_map
            (fun c ->
              match c.Bench_gate.status with
              | Bench_gate.Regressed _ ->
                  Option.map
                    (fun r -> r.Bench_gate.id)
                    (List.find_opt
                       (fun r ->
                         String.equal r.Bench_gate.id c.Bench_gate.cmp_id
                         || String.equal r.Bench_gate.name c.Bench_gate.cmp_name)
                       rows)
              | _ -> None)
            (compare ~baseline rows))
        baseline
    in
    (* --check with no named experiments gates the micros alone. *)
    let skip_experiments = check && names = [] in
    let outputs body =
      match
        Planck.Experiment.with_outputs ?metrics_out:metrics_path
          ?journal_out:journal_path ?timeseries_out:timeseries_path
          ~timeseries_interval:(Time.us timeseries_interval_us)
          body
      with
      | Ok result -> result
      | Error msg -> fail msg
    in
    let timed, total, micro =
      run_selected ~skip_experiments ~only ?recheck ~outputs names opts
        with_micro
    in
    Option.iter (fun path -> emit_json path timed total micro) json_path;
    Option.iter
      (fun (path, baseline_rows) ->
        (* --only narrows the gate to the selected micros: a baseline row
           with no counterpart in this run is a deliberate non-selection,
           not a removal. *)
        let baseline_rows =
          if only = [] then baseline_rows
          else
            List.filter
              (fun b ->
                List.exists
                  (fun c ->
                    String.equal b.Bench_gate.id c.Bench_gate.id
                    || String.equal b.Bench_gate.name c.Bench_gate.name)
                  micro)
              baseline_rows
        in
        let comparisons = compare ~baseline:baseline_rows micro in
        Printf.printf "\nGate against %s (band +/-%.0f%%):\n%s%!" path
          (100. *. tolerance)
          (Bench_gate.render_check comparisons);
        if not (Bench_gate.passes comparisons) then
          if Sys.getenv_opt "PLANCK_BENCH_NO_GATE" <> None then
            Printf.printf
              "PLANCK_BENCH_NO_GATE set: regression reported, gate not \
               enforced\n\
               %!"
          else Stdlib.exit 1)
      baseline
  end

let cmd =
  let doc =
    "Regenerate the tables and figures of 'Planck: millisecond-scale \
     monitoring and control for commodity networks' (SIGCOMM 2014)"
  in
  Cmd.v
    (Cmd.info "planck-bench" ~doc)
    Term.(
      const main $ names $ runs $ full $ seed $ list_flag $ micro_flag
      $ json_out $ metrics_out $ journal_out $ timeseries_out
      $ timeseries_interval_us $ only_micros $ check_flag $ against $ tolerance
      $ noise_floor $ tolerance_overrides $ bench_dir $ trend_flag $ trend_out)

let () = exit (Cmd.eval cmd)
