(* Tests for the Planck umbrella API: testbed construction across
   topologies, scheme deployment, and experiment bookkeeping. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate

(* the buffer-audited wrapper and the executable finder, before
   [open Planck] shadows [Testbed] *)
let case = Testbed.case
let built_exe = Testbed.built_exe

open Planck

let testbed_variants () =
  let ft = Testbed.create (Testbed.paper_fat_tree ()) in
  Alcotest.(check int) "fat-tree hosts" 16 (Testbed.host_count ft);
  let opt = Testbed.create (Testbed.optimal ~hosts:8 ()) in
  Alcotest.(check int) "optimal hosts" 8 (Testbed.host_count opt);
  let jf =
    Testbed.create
      {
        Testbed.default_spec with
        Testbed.topology =
          Testbed.Jellyfish
            {
              Planck_topology.Jellyfish.num_switches = 8;
              switch_degree = 3;
              hosts_per_switch = 2;
            };
      }
  in
  Alcotest.(check int) "jellyfish hosts" 16 (Testbed.host_count jf);
  Alcotest.(check (float 1.0)) "link rate" 10.0
    (Rate.to_gbps (Testbed.link_rate ft))

(* Set-up cost guard: building a k=8 fat tree (80 switches of 9 ports,
   128 hosts, one route per destination) allocates about 0.12 M minor
   words (0.118 M once its switch names are registered). When every
   switch registered one counter per port under its own
   "<switch>.p<port>" label, it took about 0.27 M (0.25 M warm). The
   bound is 25% above today's count, so a per-port registration coming
   back fails here. *)
let testbed_setup_alloc () =
  let spec =
    {
      Testbed.default_spec with
      Testbed.topology = Testbed.Fat_tree { k = 8 };
      alts = Some 1;
    }
  in
  let before = Gc.minor_words () in
  let tb = Testbed.create spec in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "k=8 hosts" 128 (Testbed.host_count tb);
  Alcotest.(check bool)
    (Printf.sprintf "k=8 testbed allocates %.0f minor words (bound 155,000)"
       words)
    true (words <= 155_000.)

(* The live heap of a fresh k=8 fat tree at its default 16 alternates.
   Switches look routes up in the topology instead of each holding a
   copy of every spanning tree that crosses it; the copies made this
   testbed 712k words, 193k without them. *)
let testbed_live_words () =
  let tb =
    Testbed.create
      {
        Testbed.default_spec with
        Testbed.topology = Testbed.Fat_tree { k = 8 };
      }
  in
  Alcotest.(check int) "default alternates" 16
    (Planck_topology.Routing.alts tb.Testbed.routing);
  let words = Obj.reachable_words (Obj.repr tb) in
  Alcotest.(check bool)
    (Printf.sprintf "k=8 testbed holds %d live words (bound 300,000)" words)
    true (words < 300_000)

let scheme_names () =
  Alcotest.(check string) "static" "Static" (Scheme.name Scheme.Static);
  Alcotest.(check string) "planck" "PlanckTE"
    (Scheme.name Scheme.planck_te_default);
  Alcotest.(check string) "poll 1s" "Poll-1s" (Scheme.name Scheme.poll_1s);
  Alcotest.(check string) "poll 100ms" "Poll-0.1s"
    (Scheme.name Scheme.poll_100ms)

let scheme_deployment_shapes () =
  let tb = Testbed.create (Testbed.paper_fat_tree ()) in
  let static = Scheme.deploy tb Scheme.Static in
  Alcotest.(check bool) "static has no controller" true
    (static.Scheme.controller = None && static.Scheme.poller = None);
  let tb2 = Testbed.create (Testbed.paper_fat_tree ()) in
  let te = Scheme.deploy tb2 Scheme.planck_te_default in
  Alcotest.(check bool) "planck has controller and te" true
    (te.Scheme.controller <> None && te.Scheme.te <> None);
  let tb3 = Testbed.create (Testbed.paper_fat_tree ()) in
  let poll = Scheme.deploy tb3 Scheme.poll_100ms in
  Alcotest.(check bool) "poll has poller only" true
    (poll.Scheme.poller <> None && poll.Scheme.controller = None)

let workload_names () =
  Alcotest.(check string) "stride" "stride(8)"
    (Experiment.workload_name (Experiment.Stride 8));
  Alcotest.(check string) "shuffle" "shuffle"
    (Experiment.workload_name (Experiment.Shuffle { concurrency = 2 }))

let experiment_bookkeeping () =
  let summary =
    Experiment.run
      ~spec:(Testbed.optimal ~hosts:8 ())
      ~scheme:Scheme.Static ~workload:(Experiment.Stride 4)
      ~size:(2 * 1024 * 1024) ~horizon:(Time.s 5) ()
  in
  Alcotest.(check int) "one flow per host" 8
    (List.length summary.Experiment.flows);
  Alcotest.(check bool) "completed" true summary.Experiment.all_completed;
  Alcotest.(check int) "no reroutes under static" 0
    summary.Experiment.reroutes;
  Alcotest.(check bool) "no shuffle data" true
    (summary.Experiment.host_done = None);
  Alcotest.(check bool) "avg sane" true
    (summary.Experiment.avg_goodput_gbps > 1.0
    && summary.Experiment.avg_goodput_gbps <= 10.0)

(* Observers nest: the inner one runs beside the outer (outer first,
   both per-flow callbacks fire) and leaving each body reinstalls what
   was there before. *)
let observers_nest () =
  let seen = ref [] and flows = ref [] in
  let observer name tb _ =
    seen := (name, tb) :: !seen;
    Some (fun _ -> flows := name :: !flows)
  in
  let run () =
    seen := [];
    flows := [];
    ignore
      (Experiment.run
         ~spec:(Testbed.optimal ~hosts:2 ())
         ~scheme:Scheme.Static ~workload:(Experiment.Stride 1)
         ~size:(64 * 1024) ~horizon:(Time.s 1) ());
    List.rev_map fst !seen
  in
  let names = Alcotest.(list string) in
  Experiment.with_observer (observer "outer") (fun () ->
      Experiment.with_observer (observer "inner") (fun () ->
          Alcotest.check names "both observe, outer first" [ "outer"; "inner" ]
            (run ());
          (match !seen with
          | [ (_, a); (_, b) ] ->
              Alcotest.(check bool) "one testbed" true (a == b)
          | _ -> Alcotest.fail "expected two observations");
          Alcotest.check names "every flow callback runs"
            [ "outer"; "inner"; "outer"; "inner" ]
            (List.rev !flows));
      Alcotest.check names "outer reinstalled" [ "outer" ] (run ()));
  Alcotest.check names "none left" [] (run ())

(* Run [f] with stdout sent to a file; return its result and what it
   printed. *)
let with_stdout f =
  let path = Filename.temp_file "planck_stdout" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let result =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let printed = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (result, printed)

let outputs_written () =
  let module Journal = Planck_telemetry.Journal in
  let module Metrics = Planck_telemetry.Metrics in
  let module Json = Planck_telemetry.Json in
  let tmp ext = Filename.temp_file "planck_outputs" ext in
  let journal = tmp ".ndjson" and series = tmp ".csv" and metrics = tmp ".json" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let result, printed =
    Fun.protect
      ~finally:(fun () ->
        Metrics.reset Metrics.default;
        Journal.clear Journal.default)
      (fun () ->
        with_stdout (fun () ->
            Experiment.with_outputs ~metrics_out:metrics ~journal_out:journal
              ~timeseries_out:series (fun () ->
                Experiment.run ~spec:(Testbed.paper_fat_tree ())
                  ~scheme:Scheme.planck_te_default
                  ~workload:(Experiment.Stride 8) ~size:(1024 * 1024) ())))
  in
  Alcotest.(check bool) "ran" true (Result.is_ok result);
  Alcotest.(check bool) "flags restored" false
    (Journal.enabled Journal.default || Metrics.enabled Metrics.default);
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (read journal))
  in
  let printed_count =
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "wrote %d journal events to %s" (fun n p ->
            if p = journal then Some n else None)
        |> Option.join)
      (String.split_on_char '\n' printed)
  in
  Alcotest.(check (option int)) "printed journal count"
    (Some (List.length lines)) printed_count;
  List.iter
    (fun line ->
      match Result.bind (Json.of_string line) Journal.event_of_json with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "journal line %S: %s" line e)
    lines;
  (match Planck_telemetry.Timeseries.of_csv (read series) with
  | Ok (names, rows) ->
      Alcotest.(check bool) "time-series has rows and est: columns" true
        (rows <> []
        && List.exists (fun n -> String.starts_with ~prefix:"est:" n) names)
  | Error e -> Alcotest.failf "time-series CSV: %s" e);
  (match Json.of_string (read metrics) with
  | Ok doc ->
      Alcotest.(check bool) "metrics snapshot" true
        (match Option.bind (Json.member doc "metrics") Json.to_list_opt with
        | Some (_ :: _) -> true
        | _ -> false)
  | Error e -> Alcotest.failf "metrics JSON: %s" e);
  List.iter Sys.remove [ journal; series; metrics ];
  let ran = ref false in
  let not_a_dir = tmp ".d" in
  let bad = Filename.concat not_a_dir "journal.ndjson" in
  (match
     Experiment.with_outputs ~journal_out:bad (fun () -> ran := true)
   with
  | Ok () -> Alcotest.fail "unwritable journal path accepted"
  | Error msg ->
      Alcotest.(check bool) "names the path" true
        (String.starts_with ~prefix:("cannot write " ^ bad) msg));
  Sys.remove not_a_dir;
  Alcotest.(check bool) "body not run" false !ran

(* A flag combination the run cannot honour is refused before any
   output is opened: the output file keeps its old contents, the exit
   code is 1, and stderr gets one line. *)
let cli_refuses ~args ~out_flag () =
  let exe = built_exe "bin/planck_cli.exe" in
  let out = Filename.temp_file "planck_cli" ".out"
  and err = Filename.temp_file "planck_cli" ".err" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      Out_channel.with_open_bin out (fun oc ->
          output_string oc "earlier,contents\n");
      let code =
        Sys.command
          (Printf.sprintf "%s run %s --size-mib 1 %s %s >/dev/null 2>%s"
             (Filename.quote exe) args out_flag (Filename.quote out)
             (Filename.quote err))
      in
      Alcotest.(check int) "exit code" 1 code;
      Alcotest.(check string) "output file untouched" "earlier,contents\n"
        (read out);
      Alcotest.(check int) "one line on stderr" 1
        (List.length
           (List.filter (( <> ) "") (String.split_on_char '\n' (read err)))))

let cli_refuses_sharded_timeseries =
  cli_refuses ~args:"--scheme static --shards 2" ~out_flag:"--timeseries-out"

(* Schemes and workloads that cannot run sharded: a control-plane
   scheme on two shards, and the shuffle and churn workloads. *)
let cli_refuses_sharded_runs () =
  List.iter
    (fun args -> cli_refuses ~args ~out_flag:"--journal-out" ())
    [
      "--scheme planck --shards 2";
      "--scheme static --workload shuffle --shards 2";
      "--scheme static --workload churn --shards 2";
    ]

let scalability_guards () =
  Alcotest.check_raises "odd k" (Invalid_argument "x") (fun () ->
      try ignore (Scalability.fat_tree_plan ~k:7)
      with Invalid_argument _ -> raise (Invalid_argument "x"));
  Alcotest.check_raises "bad hosts per switch" (Invalid_argument "x")
    (fun () ->
      try
        ignore
          (Scalability.jellyfish_plan ~ports:8 ~hosts_per_switch:8 ~hosts:100)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let tests =
  [
    case "testbed variants" `Quick testbed_variants;
    case "testbed set-up allocation" `Quick testbed_setup_alloc;
    case "testbed live heap" `Quick testbed_live_words;
    case "scheme names" `Quick scheme_names;
    case "scheme deployment shapes" `Quick
      scheme_deployment_shapes;
    case "workload names" `Quick workload_names;
    case "experiment bookkeeping" `Quick experiment_bookkeeping;
    case "observers nest" `Quick observers_nest;
    case "outputs written and counted" `Quick outputs_written;
    case "cli refuses sharded time-series" `Quick
      cli_refuses_sharded_timeseries;
    case "cli refuses unshardable runs" `Quick cli_refuses_sharded_runs;
    case "scalability guards" `Quick scalability_guards;
  ]
