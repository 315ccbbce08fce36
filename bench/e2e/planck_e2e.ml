(* planck-e2e: the end-to-end simulator benchmark.

     planck_e2e.exe [--workload NAME]... [--seed N] [--seconds S]
                    [--trace 0|1] [--scale full|smoke]
                    [--json FILE] [--spans-out FILE]

   Each workload runs as a series of passes, one child process per
   pass and one pass at a time, with the same seed, until --seconds
   have gone by (at least one pass; with --trace 1 at least one traced
   and one untraced pass, alternating). Every metric is printed as
   "<workload> <metric> <value> <unit>"; the last line of stdout is a
   JSON object with "correct", "attempted", "failed" and "metrics".
   Exits 1 when a correctness check fails. *)

open E2e_bench
module Json = Planck_telemetry.Json

let max_passes = 200

(* The child half: run one pass and marshal it to stdout. *)
let child w ~seed ~scale ~traced =
  let pass = Workload.run w ~seed ~scale ~traced in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (pass : Workload.pass) [];
  flush stdout

let rec waitpid_no_eintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_no_eintr pid

(* The pass in flight, so that a benchmark stopped by SIGTERM or SIGINT
   stops its child too. *)
let in_flight = ref None

let stop_on _signal =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_no_eintr pid))
    !in_flight;
  exit 2

let spawn_pass w ~seed ~scale ~traced =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [|
      Sys.executable_name;
      "--child";
      Workload.name w;
      "--seed";
      string_of_int seed;
      "--scale";
      Workload.scale_name scale;
      "--trace";
      (if traced then "1" else "0");
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  in_flight := Some pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  set_binary_mode_in ic true;
  let pass =
    match (Marshal.from_channel ic : Workload.pass) with
    | pass -> Ok pass
    | exception (End_of_file | Failure _) -> Error "no result"
  in
  close_in ic;
  let status = waitpid_no_eintr pid in
  in_flight := None;
  match (pass, status) with
  | Ok pass, Unix.WEXITED 0 -> Ok pass
  | Error e, Unix.WEXITED 0 -> Error e
  | _, Unix.WEXITED n -> Error (Printf.sprintf "pass exited with %d" n)
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "pass killed by signal %d" n)

let run_workload w ~seed ~seconds ~trace ~scale =
  let t0 = Unix.gettimeofday () in
  let min_passes = if trace then 2 else 1 in
  let rec loop acc i =
    let traced = trace && i mod 2 = 1 in
    match spawn_pass w ~seed ~scale ~traced with
    | Error reason -> Error reason
    | Ok pass ->
        let acc = pass :: acc in
        let elapsed = Unix.gettimeofday () -. t0 in
        let per_pass = elapsed /. float_of_int (i + 1) in
        (* Stop at the pass boundary nearest to --seconds. *)
        let more = elapsed +. (per_pass /. 2.) <= seconds && i + 1 < max_passes in
        if i + 1 < min_passes || more then loop acc (i + 1)
        else Ok (List.rev acc)
  in
  match loop [] 0 with
  | Ok passes -> (Report.summarize (Workload.name w) passes, passes)
  | Error reason -> (Report.crashed (Workload.name w) reason, [])

let spans_json runs =
  let span (s : Spans.span) =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
        ("name", Json.String s.name);
        ("kind", Json.String (Spans.kind_name s.kind));
        ("start_ns", Json.Int s.start_ns);
        ("stop_ns", Json.Int s.stop_ns);
      ]
  in
  Json.List
    (List.concat_map
       (fun (w, passes) ->
         List.mapi
           (fun i (p : Workload.pass) ->
             Json.Obj
               [
                 ("workload", Json.String w);
                 ("pass", Json.Int i);
                 ("traced", Json.Bool p.traced);
                 ("calibration", Json.Float p.calibration);
                 ("spans", Json.List (List.map span p.spans));
               ])
           passes)
       runs)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("planck-e2e: " ^ s);
      exit 2)
    fmt

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 0. in
  let trace = ref 0 and scale = ref "full" and child_of = ref None in
  let json = ref None and spans_out = ref None in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workloads := s :: !workloads),
       "NAME run this workload (repeatable; default: all four)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds,
       "S keep running passes for S seconds (default 0: the minimum)");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics");
      ("--scale", Arg.Set_string scale, "full|smoke workload size (default full)");
      ("--json", Arg.String (fun f -> json := Some f), "FILE write every metric as JSON");
      ("--spans-out", Arg.String (fun f -> spans_out := Some f),
       "FILE write the bench-side spans as JSON");
      ("--child", Arg.String (fun s -> child_of := Some s),
       "NAME (internal) run one pass");
    ]
  in
  Arg.parse spec
    (fun a -> fail "unexpected argument %s" a)
    "planck_e2e.exe [options]: the end-to-end simulator benchmark";
  let scale =
    match Workload.scale_of_name !scale with
    | Some s -> s
    | None -> fail "unknown scale %s" !scale
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let trace = !trace = 1 in
  let workload_of s =
    match Workload.of_name s with
    | Some w -> w
    | None ->
        fail "unknown workload %s (known: %s)" s
          (String.concat ", " (List.map Workload.name Workload.all))
  in
  match !child_of with
  | Some w -> child (workload_of w) ~seed:!seed ~scale ~traced:trace
  | None ->
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle stop_on))
        [ Sys.sigterm; Sys.sigint ];
      let workloads =
        match List.rev !workloads with
        | [] -> Workload.all
        | names -> List.map workload_of names
      in
      let runs =
        List.map
          (fun w ->
            let summary, passes =
              run_workload w ~seed:!seed ~seconds:!seconds ~trace ~scale
            in
            List.iter print_endline (Report.lines summary);
            (summary, passes))
          workloads
      in
      let summaries = List.map fst runs in
      Option.iter
        (fun path ->
          write_file path
            (Json.to_string
               (Json.Obj
                  [
                    ("seed", Json.Int !seed);
                    ("scale", Json.String (Workload.scale_name scale));
                    ("trace", Json.Bool trace);
                    ( "workloads",
                      Json.Obj
                        (List.map
                           (fun s -> (s.Report.workload, Report.summary_json s))
                           summaries) );
                  ])))
        !json;
      Option.iter
        (fun path ->
          write_file path
            (Json.to_string
               (spans_json (List.map (fun (s, p) -> (s.Report.workload, p)) runs))))
        !spans_out;
      print_endline (Report.result_line ~trace summaries);
      if not (List.for_all Report.correct summaries) then exit 1
