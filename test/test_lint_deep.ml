(* The typed lint tier: call-graph hot reachability, type-aware
   poly-compare, determinism taint, dead exports, and the baseline.

   Fixtures are type-checked in-process against the stdlib environment
   ([Lint_cmt_index.add_typed_source]), so each test states its whole
   world: the fixture is the unit, [note_unit_ref] plays the part of
   external references, and sink/root lists are injected. *)

module Index = Planck_lint_lib.Lint_cmt_index
module Callgraph = Planck_lint_lib.Lint_callgraph
module Taint = Planck_lint_lib.Lint_taint
module Deep = Planck_lint_lib.Lint_deep_rules
module Engine = Planck_lint_lib.Lint_engine
module Finding = Planck_lint_lib.Lint_finding
module Rules = Planck_lint_lib.Lint_rules

let index_of sources =
  let ix = Index.load ~dirs:[] in
  List.iter
    (fun (unit_name, file, source) ->
      Index.add_typed_source ix ~unit_name ~file ~source)
    sources;
  ix

let rules_at ~rule findings =
  List.filter_map
    (fun f ->
      if String.equal f.Finding.rule rule then
        Some (Printf.sprintf "%s:%d" f.Finding.file f.Finding.line)
      else None)
    findings

(* ---- hot-path reachability ---- *)

let reach_fixture =
  {|
let leaf_work x = x * 2
let helper x = leaf_work x + 1
let ingress x = helper x
let cold_path x = leaf_work x - 1
|}

let test_hot_reachability () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", reach_fixture) ] in
  let t = Deep.prepare ~hot_roots:[ "Fix.ingress" ] ix in
  Alcotest.(check bool) "root is hot" true (Deep.is_hot t "Fix.ingress");
  Alcotest.(check bool) "direct callee is hot" true (Deep.is_hot t "Fix.helper");
  Alcotest.(check bool)
    "transitive callee is hot" true
    (Deep.is_hot t "Fix.leaf_work");
  Alcotest.(check bool)
    "unreached def is cold" false
    (Deep.is_hot t "Fix.cold_path");
  let chain = Deep.hot_chain t "Fix.leaf_work" in
  Alcotest.(check bool)
    "witness chain starts at the root" true
    (String.length chain >= String.length "Fix.ingress"
    && String.sub chain 0 (String.length "Fix.ingress") = "Fix.ingress")

(* The repo self-checks read the build tree: dune runs them from
   _build/default/test, whose parent holds the copies of lib/ and the
   .cmt files. Run from anywhere else they fail and name the directory
   they expected, rather than pass without checking anything. *)
let build_root () =
  let root = Filename.dirname (Sys.getcwd ()) in
  if not (Sys.file_exists (Filename.concat root "lib")) then
    Alcotest.failf
      "expected the build tree at %s (run from _build/default/test, as \
       dune runtest does)"
      root;
  root

(* The build tree's .cmt index; an empty one fails the same way. *)
let build_index () =
  let root = build_root () in
  let ix = Index.load ~dirs:[ root ] in
  if Index.unit_count ix = 0 then
    Alcotest.failf "no .cmt files under %s (build first)" root;
  ix

(* The acceptance witness: with the repo's real cmt artifacts, the hot
   closure reaches [Planck_util__Heap.add] through the switch pipeline
   ([Switch.ingress -> Switch.pipe_enter -> Heap.add]) — a function the
   old hot-dir x hot-stem heuristic could never flag (lib/util/ was not
   a hot dir). *)
let test_hot_includes_heap_add () =
  let t = Deep.prepare (build_index ()) in
  Alcotest.(check bool)
    "Heap.add is hot via the switch pipeline" true
    (Deep.is_hot t "Planck_util__Heap.add");
  (* Heap.add is not itself a root, so the witness chain must show a
     genuine transitive step from one. *)
  let chain = Deep.hot_chain t "Planck_util__Heap.add" in
  Alcotest.(check bool)
    "witness chain is transitive" true
    (let sub = " -> " in
     let n = String.length chain and m = String.length sub in
     let rec scan i =
       i + m <= n && (String.sub chain i m = sub || scan (i + 1))
     in
     scan 0);
  Alcotest.(check bool)
    "old heuristic scope did not cover lib/util" false
    (List.mem "Planck_util__Heap.add" Deep.default_hot_roots)

(* A root missing from the index contributes nothing, so a renamed or
   deleted entry point would silently drop its whole path out of the
   hot set. Every default root must name a real definition. *)
let test_hot_roots_resolve () =
  let ix = build_index () in
  Alcotest.(check (list string))
    "hot roots missing from the index" []
    (List.filter
       (fun r -> Option.is_none (Index.find_def ix r))
       Deep.default_hot_roots)

(* ---- type-aware poly-compare ---- *)

let poly_fixture =
  {|
type r = { a : int; b : string }
let compare_records (x : r) (y : r) = compare x y
let compare_ints (x : int) (y : int) = compare x y
module Shadow = struct
  let compare (x : int array) (y : int array) = Stdlib.compare x.(0) y.(0)
end
let uses_shadow x y = Shadow.compare x y
|}

let test_typed_poly_compare () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", poly_fixture) ] in
  let t = Deep.prepare ~hot_roots:[] ix in
  let hits = rules_at ~rule:"poly-compare" (Deep.findings ~dead_export:false t) in
  Alcotest.(check (list string))
    "only the structured compare fires"
    [ "lib/fix/fix.ml:3" ] hits

let float_fixture =
  {|
let close (x : float) (y : float) = x = y
let ints_fine (x : int) (y : int) = x = y
|}

let test_typed_float_equality () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", float_fixture) ] in
  let t = Deep.prepare ~hot_roots:[] ix in
  let hits =
    rules_at ~rule:"float-equality" (Deep.findings ~dead_export:false t)
  in
  Alcotest.(check (list string))
    "float (=) fires, int (=) does not"
    [ "lib/fix/fix.ml:2" ] hits

(* Structured (=) is reported only on the hot path; the same fixture
   with no hot roots stays quiet. *)
let structural_eq_fixture =
  {|
let eq_lists (a : int list) (b : int list) = a = b
let ingress a b = eq_lists a b
|}

let test_hot_structural_equality () =
  let src = [ ("Fix", "lib/fix/fix.ml", structural_eq_fixture) ] in
  let hot =
    Deep.prepare ~hot_roots:[ "Fix.ingress" ] (index_of src)
  in
  Alcotest.(check (list string))
    "hot list (=) fires"
    [ "lib/fix/fix.ml:2" ]
    (rules_at ~rule:"poly-compare" (Deep.findings ~dead_export:false hot));
  let cold = Deep.prepare ~hot_roots:[] (index_of src) in
  Alcotest.(check (list string))
    "cold list (=) is allowed" []
    (rules_at ~rule:"poly-compare" (Deep.findings ~dead_export:false cold))

(* ---- hot-alloc and the raise-path exemption ----

   This is switch.ml's check_port shape: an allocating format call
   whose result feeds [invalid_arg] on a hot function's error path.
   Raise arguments are exempt, so it needs no suppression. A bare
   allocation on the same hot path still fires. *)

let raise_fixture =
  {|
let check_port port n =
  if port < 0 || port >= n then
    invalid_arg (Printf.sprintf "bad port %d (have %d)" port n)

let label_packet x = string_of_int x

let ingress port n = check_port port n; label_packet port
|}

let test_hot_alloc_raise_exempt () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", raise_fixture) ] in
  let t = Deep.prepare ~hot_roots:[ "Fix.ingress" ] ix in
  let hits = rules_at ~rule:"hot-alloc" (Deep.findings ~dead_export:false t) in
  Alcotest.(check (list string))
    "raise-path sprintf exempt, live allocation fires"
    [ "lib/fix/fix.ml:6" ] hits

let schedule_fixture =
  {|
module Engine = struct let schedule _e ~delay:_ _f = () end
let on_packet e = Engine.schedule e ~delay:10 (fun () -> ())
let ingress e = on_packet e
let idle_setup e = Engine.schedule e ~delay:10 (fun () -> ())
|}

let test_hot_schedule () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", schedule_fixture) ] in
  let t = Deep.prepare ~hot_roots:[ "Fix.ingress" ] ix in
  let hits =
    rules_at ~rule:"hot-schedule" (Deep.findings ~dead_export:false t)
  in
  Alcotest.(check (list string))
    "only the per-packet closure fires"
    [ "lib/fix/fix.ml:3" ] hits

(* ---- determinism taint ---- *)

let taint_fixture =
  {|
module Journal = struct let record (_ : float) = () end
let now () = Sys.time ()
let log_time () = Journal.record (now ())
let log_const () = Journal.record 0.0
let unused_clock () = Sys.time ()
|}

let taint_config =
  { Taint.sink_patterns = [ "Journal.record" ]; exempt_source = (fun _ -> false) }

(* The other determinism sources the taint tier recognises, each behind its
   own journal write; the explicitly seeded and the order-free calls
   stay quiet. *)
let taint_sources_fixture =
  {|
module Journal = struct let record (_ : int) = () end
module Flow_key = struct
  module Table = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash x = x
  end)
end
let global_draw () = Random.int 10
let self_seeded () = Random.State.make_self_init ()
let bucket_order (tbl : (int, int) Hashtbl.t) = Hashtbl.iter (fun _ _ -> ()) tbl; 0
let table_order tbl = Flow_key.Table.fold (fun k _ acc -> k + acc) tbl 0
let seeded_draw st = Random.State.int st 10
let seq_order (tbl : (int, int) Hashtbl.t) = Seq.length (Hashtbl.to_seq tbl)
let log_global () = Journal.record (global_draw ())
let log_self_seeded () = Journal.record (Random.State.int (self_seeded ()) 10)
let log_bucket tbl = Journal.record (bucket_order tbl)
let log_table tbl = Journal.record (table_order tbl)
let log_seeded st = Journal.record (seeded_draw st)
let log_seq tbl = Journal.record (seq_order tbl)
|}

let test_taint_reaches_sink () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", taint_fixture) ] in
  let findings = Taint.report ~config:taint_config ix in
  Alcotest.(check (list string))
    "clock behind a journal write fires, at the source line"
    [ "lib/fix/fix.ml:3" ]
    (rules_at ~rule:"determinism-taint" findings);
  (match findings with
  | [ f ] ->
      Alcotest.(check string)
        "symbol is the sink-adjacent def" "Fix.log_time" f.Finding.symbol
  | _ -> Alcotest.fail "expected exactly one taint finding");
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", taint_sources_fixture) ] in
  Alcotest.(check (list string))
    "Random.int, make_self_init, Hashtbl.iter and Table.fold fire; \
     Random.State.int and Hashtbl.to_seq do not"
    [ "Fix.log_bucket"; "Fix.log_global"; "Fix.log_self_seeded"; "Fix.log_table" ]
    (List.sort String.compare
       (List.map
          (fun f -> f.Finding.symbol)
          (Taint.report ~config:taint_config ix)))

let test_taint_needs_sink () =
  let no_sink =
    {|
let now () = Sys.time ()
let fmt () = Printf.sprintf "%f" (now ())
|}
  in
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", no_sink) ] in
  Alcotest.(check (list string))
    "a clock that never reaches a sink is quiet" []
    (rules_at ~rule:"determinism-taint" (Taint.report ~config:taint_config ix))

let test_taint_exempt_source () =
  let ix = index_of [ ("Fix", "lib/telemetry/fix.ml", taint_fixture) ] in
  let config =
    { taint_config with Taint.exempt_source = Taint.default_config.exempt_source }
  in
  Alcotest.(check (list string))
    "real-time telemetry files are exempt sources" []
    (rules_at ~rule:"determinism-taint" (Taint.report ~config ix))

(* ---- dead exports and the baseline ---- *)

let dead_impl = {|
let used x = x + 1
let unused x = x - 1
let reexported x = x * 2
|}

let dead_intf = {|
val used : int -> int
val unused : int -> int
val reexported : int -> int
|}

let dead_index () =
  let ix = Index.load ~dirs:[] in
  Index.add_typed_source ix ~unit_name:"Fix_dead" ~file:"lib/fix/fix_dead.ml"
    ~source:dead_impl;
  Index.add_typed_interface ix ~unit_name:"Fix_dead"
    ~file:"lib/fix/fix_dead.mli" ~source:dead_intf;
  Index.note_unit_ref ix ~from_unit:"Fix_user" ~target:"Fix_dead.used";
  (* the bench shape: a common unit re-exports Fix_dead under an
     alias, and another unit opens it and calls through the alias *)
  Index.add_typed_source ix ~unit_name:"Fix_common"
    ~file:"bench/fix_common.ml" ~source:"module D = Fix_dead\n";
  Index.add_typed_source ix ~unit_name:"Fix_exp" ~file:"bench/fix_exp.ml"
    ~source:"open Fix_common\nlet run x = D.reexported x\n";
  ix

let test_dead_export () =
  let t = Deep.prepare ~hot_roots:[] (dead_index ()) in
  let dead = rules_at ~rule:"dead-export" (Deep.findings t) in
  Alcotest.(check (list string))
    "only the unreferenced export fires, on the mli; a reference through \
     another unit's module alias counts"
    [ "lib/fix/fix_dead.mli:3" ] dead

let test_baseline_round_trip () =
  let t = Deep.prepare ~hot_roots:[] (dead_index ()) in
  let findings = Deep.findings t in
  let path = Filename.temp_file "planck_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "# comment\n\ndead-export Fix_dead.unused -- kept for the test\n";
      close_out oc;
      let entries =
        match Deep.load_baseline path with
        | Ok entries -> entries
        | Error e -> Alcotest.failf "baseline should parse: %s" e
      in
      let kept, baselined = Deep.apply_baseline entries findings in
      Alcotest.(check (list string))
        "baselined entry is absorbed" []
        (rules_at ~rule:"dead-export" kept);
      Alcotest.(check int) "one finding baselined" 1 (List.length baselined))

let test_baseline_stale () =
  let findings = Deep.findings (Deep.prepare ~hot_roots:[] (dead_index ())) in
  let entry rule symbol line = { Deep.rule; symbol; line } in
  let entries =
    [
      entry "dead-export" "Fix_dead.unused" 1;
      entry "dead-export" "Fix_dead.gone" 2;
      entry "poly-compare" "Fix_dead.gone" 3;
    ]
  in
  let stale ~ran =
    List.map
      (fun f -> (f.Finding.rule, f.Finding.line))
      (Deep.stale_baseline ~file:"baseline.txt" ~ran entries findings)
  in
  Alcotest.(check (list (pair string int)))
    "entries matching no finding are errors at their line"
    [ ("stale-baseline", 2); ("stale-baseline", 3) ]
    (stale ~ran:(fun _ -> true));
  Alcotest.(check (list (pair string int)))
    "entries of a rule that did not run are not judged"
    [ ("stale-baseline", 3) ]
    (stale ~ran:(fun rule -> rule <> "dead-export"))

let test_baseline_malformed () =
  let path = Filename.temp_file "planck_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "dead-export NoJustification\n";
      close_out oc;
      match Deep.load_baseline path with
      | Ok _ -> Alcotest.fail "missing '--' must be rejected"
      | Error _ -> ())

(* ---- inline suppressions cover deep findings ---- *)

let test_suppression_covers_deep () =
  let source =
    "let id x = x\n\
     (* planck-lint: allow poly-compare -- fixture justification *)\n\
     let third_line = ()\n"
  in
  let deep_finding =
    Finding.v ~symbol:"Fix.third_line" ~rule:"poly-compare" ~severity:Finding.Error
      ~file:"lib/fix.ml" ~line:3 ~col:4 "typed finding from the deep tier"
  in
  let kept, suppressed =
    Engine.lint_source ~extra:[ deep_finding ] ~path:"lib/fix.ml" ~source ()
  in
  Alcotest.(check int) "deep finding suppressed by directive" 1
    (List.length suppressed);
  Alcotest.(check (list string))
    "nothing kept" []
    (rules_at ~rule:"poly-compare" kept)

let tests =
  [
    Alcotest.test_case "hot reachability closure" `Quick test_hot_reachability;
    Alcotest.test_case "hot set includes Heap.add (repo cmts)" `Quick
      test_hot_includes_heap_add;
    Alcotest.test_case "every hot root resolves (repo cmts)" `Quick
      test_hot_roots_resolve;
    Alcotest.test_case "typed poly-compare" `Quick test_typed_poly_compare;
    Alcotest.test_case "typed float-equality" `Quick test_typed_float_equality;
    Alcotest.test_case "hot structural equality" `Quick
      test_hot_structural_equality;
    Alcotest.test_case "hot-alloc raise exemption" `Quick
      test_hot_alloc_raise_exempt;
    Alcotest.test_case "hot-schedule closure" `Quick test_hot_schedule;
    Alcotest.test_case "taint reaches sink" `Quick test_taint_reaches_sink;
    Alcotest.test_case "taint needs a sink" `Quick test_taint_needs_sink;
    Alcotest.test_case "taint exempts telemetry sources" `Quick
      test_taint_exempt_source;
    Alcotest.test_case "dead export" `Quick test_dead_export;
    Alcotest.test_case "baseline round trip" `Quick test_baseline_round_trip;
    Alcotest.test_case "stale baseline entries are errors" `Quick
      test_baseline_stale;
    Alcotest.test_case "baseline rejects malformed" `Quick
      test_baseline_malformed;
    Alcotest.test_case "suppressions cover deep findings" `Quick
      test_suppression_covers_deep;
  ]
