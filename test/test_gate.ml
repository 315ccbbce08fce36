(* The perf-trajectory gate: row parsing and serialisation, the
   tolerance comparator with per-row overrides, the committed
   BENCH_*.json trajectory, and the bench binary's --check exit codes —
   a synthetically injected slowdown must fail the gate (the
   acceptance witness), and PLANCK_BENCH_NO_GATE must report without
   enforcing. *)

module Gate = Bench_gate
module Json = Planck_telemetry.Json

let r ?ns id = { Gate.id; name = id; ns_per_op = ns }

let statuses cmps =
  List.map
    (fun c ->
      let label =
        match c.Gate.status with
        | Gate.Improved _ -> "improved"
        | Gate.In_band _ -> "in-band"
        | Gate.Regressed _ -> "regressed"
        | Gate.New_row -> "new"
        | Gate.Removed_row -> "removed"
        | Gate.Missing_estimate -> "missing"
        | Gate.No_baseline_estimate -> "null-baseline"
      in
      (c.Gate.cmp_id, label))
    cmps

(* ---- slug / ids ---- *)

let test_slug () =
  Alcotest.(check string)
    "punctuation collapses" "packet-serialize-to-wire"
    (Gate.slug "Packet serialize (to wire!)");
  Alcotest.(check string) "edges trimmed" "a-b" (Gate.slug "--A  b__");
  Alcotest.(check string) "already kebab" "cms-update" (Gate.slug "cms-update")

(* ---- the comparator, one row per status ---- *)

let test_comparator_statuses () =
  let baseline =
    [
      r ~ns:100. "fast";
      r ~ns:100. "slow";
      r ~ns:100. "steady";
      r ~ns:100. "gone";
      r ~ns:100. "lost";
      r "null-base";
    ]
  in
  let current =
    [
      r ~ns:50. "fast";
      r ~ns:200. "slow";
      r ~ns:110. "steady";
      r "lost";
      r ~ns:70. "null-base";
      r ~ns:33. "fresh";
    ]
  in
  let cmps = Gate.compare_rows ~noise_floor_ns:0. ~baseline ~current () in
  Alcotest.(check (list (pair string string)))
    "every status, baseline order then new rows"
    [
      ("fast", "improved");
      ("slow", "regressed");
      ("steady", "in-band");
      ("gone", "removed");
      ("lost", "missing");
      ("null-base", "null-baseline");
      ("fresh", "new");
    ]
    (statuses cmps);
  Alcotest.(check bool) "regressions fail the gate" false (Gate.passes cmps);
  Alcotest.(check bool)
    "improvements, new rows and null baselines pass" true
    (Gate.passes
       (Gate.compare_rows
          ~baseline:[ r ~ns:100. "fast"; r "null-base" ]
          ~current:[ r ~ns:50. "fast"; r ~ns:70. "null-base"; r ~ns:1. "fresh" ]
          ()));
  Alcotest.(check (list (pair string string)))
    "the absolute noise floor absorbs clock-granularity jitter"
    [ ("tiny", "in-band"); ("big", "regressed") ]
    (statuses
       (Gate.compare_rows ~noise_floor_ns:5.
          ~baseline:[ r ~ns:20. "tiny"; r ~ns:1000. "big" ]
          ~current:[ r ~ns:27. "tiny"; r ~ns:1300. "big" ]
          ()));
  let report = Gate.render_check cmps in
  Alcotest.(check bool)
    "report carries the verdict" true
    (String.length report > 0
    &&
    let needle = "bench gate: FAIL" in
    let n = String.length needle and h = String.length report in
    let rec scan i =
      i + n <= h && (String.sub report i n = needle || scan (i + 1))
    in
    scan 0)

let test_tolerance_and_overrides () =
  let baseline = [ r ~ns:100. "x"; r ~ns:100. "y" ] in
  let current = [ r ~ns:120. "x"; r ~ns:120. "y" ] in
  Alcotest.(check (list (pair string string)))
    "+20% regresses under the default +/-15% band"
    [ ("x", "regressed"); ("y", "regressed") ]
    (statuses (Gate.compare_rows ~noise_floor_ns:0. ~baseline ~current ()));
  Alcotest.(check (list (pair string string)))
    "a per-row override widens only its row"
    [ ("x", "in-band"); ("y", "regressed") ]
    (statuses
       (Gate.compare_rows ~noise_floor_ns:0. ~overrides:[ ("x", 0.30) ]
          ~baseline ~current ()));
  Alcotest.(check (list (pair string string)))
    "the default band is adjustable"
    [ ("x", "in-band"); ("y", "in-band") ]
    (statuses
       (Gate.compare_rows ~noise_floor_ns:0. ~tolerance:0.25 ~baseline ~current
          ()))

let test_parse_override () =
  (match Gate.parse_override "switch-forward-mirror=0.3" with
  | Ok (id, frac) ->
      Alcotest.(check string) "id" "switch-forward-mirror" id;
      Alcotest.(check (float 1e-9)) "fraction" 0.3 frac
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Gate.parse_override s with
      | Ok _ -> Alcotest.failf "%S must be rejected" s
      | Error _ -> ())
    [ "no-equals"; "=0.3"; "x=abc"; "x=-1" ]

(* Pre-id baselines only carry display names (their ids parse as name
   slugs); a current run with curated ids must still join. *)
let test_name_fallback_join () =
  let name = "switch forward+mirror" in
  let baseline = [ { Gate.id = Gate.slug name; name; ns_per_op = Some 100. } ] in
  let current = [ { Gate.id = "switch-fwd"; name; ns_per_op = Some 105. } ] in
  Alcotest.(check (list (pair string string)))
    "joined by display name, no spurious new row"
    [ ("switch-forward-mirror", "in-band") ]
    (statuses (Gate.compare_rows ~baseline ~current ()))

(* ---- JSON shapes ---- *)

let test_rows_json_round_trip () =
  let rows =
    [
      { Gate.id = "a"; name = "A row"; ns_per_op = Some 12.5 };
      { Gate.id = "b"; name = "B (no estimate)"; ns_per_op = None };
    ]
  in
  (match Gate.rows_of_json (Gate.rows_to_json rows) with
  | Ok parsed ->
      Alcotest.(check bool)
        "round-trips, null estimate included" true (parsed = rows)
  | Error e -> Alcotest.fail e);
  match Json.of_string {|{"micro":[{"name":"Some Name","ns_per_op":3.0}]}|} with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
      match Gate.rows_of_json doc with
      | Ok [ { Gate.id; ns_per_op = Some ns; _ } ] ->
          Alcotest.(check string) "missing id defaults to slug" "some-name" id;
          Alcotest.(check (float 1e-9)) "estimate" 3.0 ns
      | Ok _ -> Alcotest.fail "expected exactly one row"
      | Error e -> Alcotest.fail e)

(* ---- the committed trajectory ----

   Tests run from _build/default/test; the BENCH_*.json files live in
   the repo root, which is not part of the build tree — walk up until
   both dune-project and bench files appear (same spirit as the lint
   repo-clean check) and skip quietly in a bare sandbox. *)

let repo_root () =
  let rec up d =
    if
      Sys.file_exists (Filename.concat d "dune-project")
      && Gate.bench_files ~dir:d <> []
    then Some d
    else
      let parent = Filename.dirname d in
      if String.equal parent d then None else up parent
  in
  up (Sys.getcwd ())

let test_committed_trajectory () =
  match repo_root () with
  | None -> ()
  | Some root ->
      let files = Gate.bench_files ~dir:root in
      Alcotest.(check bool)
        "trajectory has committed bench files" true
        (List.length files >= 1);
      List.iter
        (fun path ->
          match Gate.load_rows ~path with
          | Error e -> Alcotest.failf "%s does not parse: %s" path e
          | Ok rows ->
              Alcotest.(check bool)
                (path ^ " has micro rows") true
                (List.length rows > 0))
        files;
      (match Gate.latest_bench ~dir:root with
      | None -> Alcotest.fail "latest_bench disagrees with bench_files"
      | Some latest -> (
          match Gate.load_rows ~path:latest with
          | Error e -> Alcotest.fail e
          | Ok rows -> (
              (* the schema the emitter writes must round-trip *)
              match Gate.rows_of_json (Gate.rows_to_json rows) with
              | Ok parsed ->
                  Alcotest.(check bool)
                    "latest baseline round-trips" true (parsed = rows)
              | Error e -> Alcotest.fail e)));
      match Gate.trend ~dir:root with
      | Error e -> Alcotest.fail e
      | Ok md ->
          Alcotest.(check bool)
            "trend table renders a header row" true
            (String.length md > 0
            &&
            let needle = "| micro |" in
            let n = String.length needle and h = String.length md in
            let rec scan i =
              i + n <= h && (String.sub md i n = needle || scan (i + 1))
            in
            scan 0)

let test_trend_folds_id_change () =
  let dir = Filename.temp_file "planck_trend" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let write file contents =
    let oc = open_out (Filename.concat dir file) in
    output_string oc contents;
    close_out oc
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      (* BENCH_1 predates ids (row keys on the name slug); BENCH_2
         carries a curated id for the same display name. *)
      write "BENCH_1.json"
        {|{"micro":[{"name":"packet serialize (to wire)","ns_per_op":10.0}]}|};
      write "BENCH_2.json"
        {|{"micro":[{"id":"packet-serialize","name":"packet serialize (to wire)","ns_per_op":12.0}]}|};
      match Gate.trend ~dir with
      | Error e -> Alcotest.fail e
      | Ok md ->
          let lines =
            List.filter
              (fun l -> String.length l > 0 && l.[0] = '|')
              (String.split_on_char '\n' md)
          in
          (* header + separator + ONE folded data row *)
          Alcotest.(check int) "one series, not two" 3 (List.length lines);
          Alcotest.(check bool)
            "both columns populated" true
            (match List.rev lines with
            | last :: _ ->
                last = "| `packet-serialize-to-wire` | 10.0 | 12.0 |"
            | [] -> false))

(* ---- the bench binary's exit codes (test-enforced acceptance) ---- *)

let write_baseline path ns =
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ( "micro",
              Gate.rows_to_json
                [
                  {
                    Gate.id = "packet-serialize";
                    name = "packet serialize (to wire)";
                    ns_per_op = Some ns;
                  };
                ] );
          ]));
  close_out oc

let test_check_exit_codes () =
  let exe = Testbed.built_exe "bench/main.exe" in
  let base = Filename.temp_file "planck_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove base)
    (fun () ->
      let run env =
        Sys.command
          (Printf.sprintf
             "%s%s --check --only packet-serialize --against %s \
              >/dev/null 2>&1"
             env (Filename.quote exe) (Filename.quote base))
      in
      write_baseline base 1e9;
      Alcotest.(check int) "generous baseline passes" 0 (run "");
      write_baseline base 1e-3;
      Alcotest.(check int) "synthetic slowdown fails the gate" 1 (run "");
      Alcotest.(check int)
        "PLANCK_BENCH_NO_GATE reports without enforcing" 0
        (run "PLANCK_BENCH_NO_GATE=1 "))

let tests =
  [
    Alcotest.test_case "slug" `Quick test_slug;
    Alcotest.test_case "comparator covers every status" `Quick
      test_comparator_statuses;
    Alcotest.test_case "tolerance bands and overrides" `Quick
      test_tolerance_and_overrides;
    Alcotest.test_case "override parsing" `Quick test_parse_override;
    Alcotest.test_case "pre-id baselines join by name" `Quick
      test_name_fallback_join;
    Alcotest.test_case "row JSON round-trips" `Quick test_rows_json_round_trip;
    Alcotest.test_case "committed trajectory parses and trends" `Quick
      test_committed_trajectory;
    Alcotest.test_case "trend folds the id scheme change" `Quick
      test_trend_folds_id_change;
    Alcotest.test_case "bench --check exit codes" `Slow test_check_exit_codes;
  ]
