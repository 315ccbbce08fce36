(* The domain-safety tier: the mutable-state classification lattice,
   the three shard-confinement rules (positive and negative fixtures
   each), baseline absorption and the JSON report's classification.

   Fixtures are type-checked in-process against the stdlib environment
   (same harness as test_lint_deep); fixture files live under [lib/]
   so the tier's lib-only scope applies. *)

module Index = Planck_lint_lib.Lint_cmt_index
module Deep = Planck_lint_lib.Lint_deep_rules
module Dom = Planck_lint_lib.Lint_domain_rules
module Finding = Planck_lint_lib.Lint_finding
module Report = Planck_lint_lib.Lint_report

let index_of sources =
  let ix = Index.load ~dirs:[] in
  List.iter
    (fun (unit_name, file, source) ->
      Index.add_typed_source ix ~unit_name ~file ~source)
    sources;
  ix

let syms ~rule findings =
  List.filter_map
    (fun f ->
      if String.equal f.Finding.rule rule then Some f.Finding.symbol else None)
    findings
  |> List.sort_uniq String.compare

(* ---- classification lattice ---- *)

let class_fixture =
  {|
let limit = 42
let table : (int, int) Hashtbl.t = Hashtbl.create 16
let hits = Atomic.make 0
type t = { mutable n : int }
let create () = { n = 0 }
let touch t = t.n <- t.n + 1
let lookup k = Hashtbl.find_opt table k
|}

let class_of entries id =
  match List.find_opt (fun e -> String.equal e.Dom.e_id id) entries with
  | Some e -> Some (Dom.class_label e.Dom.e_class)
  | None -> None

let test_classification () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", class_fixture) ] in
  let t = Deep.prepare ~hot_roots:[] ix in
  let entries = Dom.inventory t in
  Alcotest.(check (option string))
    "plain value is immutable" (Some "immutable")
    (class_of entries "Fix.limit");
  Alcotest.(check (option string))
    "Hashtbl is shared-mutable" (Some "shared-mutable")
    (class_of entries "Fix.table");
  Alcotest.(check (option string))
    "Atomic.t is atomic" (Some "atomic")
    (class_of entries "Fix.hits");
  Alcotest.(check (option string))
    "constructor returning mutable state is engine-scoped"
    (Some "engine-scoped")
    (class_of entries "Fix.create");
  Alcotest.(check (option string))
    "state-threading mutator is not itself state" None
    (class_of entries "Fix.touch");
  Alcotest.(check (option string))
    "pure function is not inventoried" None
    (class_of entries "Fix.lookup")

(* A binding capturing a mutable cell in its closure is state even
   though its type is an arrow. *)
let test_closure_capture () =
  let src = {|
let next_id =
  let counter = ref 0 in
  fun () -> incr counter; !counter
|} in
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", src) ] in
  let t = Deep.prepare ~hot_roots:[] ix in
  Alcotest.(check (option string))
    "closure-captured counter is shared-mutable" (Some "shared-mutable")
    (class_of (Dom.inventory t) "Fix.next_id")

(* ---- the three rules ---- *)

let rules_fixture =
  {|
let table : (int, int) Hashtbl.t = Hashtbl.create 16
let cold_box = ref 0
let safe_hits = Atomic.make 0
let raw_hits = ref 0
let bump () = incr raw_hits
let safe_bump () = Atomic.incr safe_hits
let ingress x =
  Hashtbl.replace table x x;
  bump ();
  safe_bump ()
|}

let rules_findings () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", rules_fixture) ] in
  let t = Deep.prepare ~hot_roots:[ "Fix.ingress" ] ix in
  Dom.findings t

let test_shared_mutable_global () =
  Alcotest.(check (list string))
    "every shared-mutable global fires; the Atomic one does not"
    [ "Fix.cold_box"; "Fix.raw_hits"; "Fix.table" ]
    (syms ~rule:"shared-mutable-global" (rules_findings ()))

let test_shard_unsafe_reach () =
  Alcotest.(check (list string))
    "only hot-reachable shared state fires; the cold binding does not"
    [ "Fix.raw_hits"; "Fix.table" ]
    (syms ~rule:"shard-unsafe-reach" (rules_findings ()))

let test_nonatomic_counter () =
  Alcotest.(check (list string))
    "ref RMW fires; the Atomic counterpart does not"
    [ "Fix.raw_hits" ]
    (syms ~rule:"nonatomic-counter" (rules_findings ()))

(* ---- Domain.spawn closures as shard roots ----

   With the sharded engine, code reached from a [Domain.spawn] body
   runs concurrently even if no per-packet hot root reaches it, so the
   domain tier treats spawn callers as additional shard roots. *)

let spawn_fixture =
  {|
let table : (int, int) Hashtbl.t = Hashtbl.create 16
let hits = Atomic.make 0
let body () = Hashtbl.replace table 1 1; Atomic.incr hits
let launch () = ignore (Domain.spawn body)
|}

let test_spawn_closure_is_shard_root () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", spawn_fixture) ] in
  Alcotest.(check (list string))
    "the spawn call site is detected" [ "Fix.launch" ]
    (Dom.spawn_callers ix);
  (* no per-packet hot roots at all: the reach finding comes purely
     from the spawned closure *)
  let t = Deep.prepare ~hot_roots:[] ix in
  Alcotest.(check (list string))
    "shared state reached from the spawned closure fires"
    [ "Fix.table" ]
    (syms ~rule:"shard-unsafe-reach" (Dom.findings t));
  let closure = Dom.shard_closure t in
  Alcotest.(check bool) "the spawned body is in the shard closure" true
    (Planck_lint_lib.Lint_callgraph.mem closure "Fix.body")

let test_no_spawn_means_no_shard_root () =
  let src =
    {|
let table : (int, int) Hashtbl.t = Hashtbl.create 16
let audit () = Hashtbl.length table
|}
  in
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", src) ] in
  Alcotest.(check (list string))
    "no spawn callers in a spawn-free unit" [] (Dom.spawn_callers ix);
  let t = Deep.prepare ~hot_roots:[] ix in
  Alcotest.(check (list string))
    "without roots the same state does not fire the reach rule" []
    (syms ~rule:"shard-unsafe-reach" (Dom.findings t));
  Alcotest.(check (list string))
    "it still fires the global-state rule" [ "Fix.table" ]
    (syms ~rule:"shared-mutable-global" (Dom.findings t))

(* RMW on a mutable field of a *parameter* is the engine-scoped
   discipline the tier exists to encourage — no rule fires. *)
let test_param_rmw_is_clean () =
  let src =
    {|
type t = { mutable count : int }
let create () = { count = 0 }
let touch t = t.count <- t.count + 1
let ingress t = touch t
|}
  in
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", src) ] in
  let t = Deep.prepare ~hot_roots:[ "Fix.ingress" ] ix in
  Alcotest.(check (list string))
    "no findings on parameter-threaded state" []
    (List.map (fun f -> f.Finding.rule) (Dom.findings t))

(* ---- baseline and report plumbing ---- *)

let test_baseline_absorbs_domain_finding () =
  let findings = rules_findings () in
  let path = Filename.temp_file "planck_domain_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "shared-mutable-global Fix.table -- fixture justification\n\
         shard-unsafe-reach Fix.table -- fixture justification\n";
      close_out oc;
      let entries =
        match Deep.load_baseline path with
        | Ok entries -> entries
        | Error e -> Alcotest.failf "baseline should parse: %s" e
      in
      let kept, baselined = Deep.apply_baseline entries findings in
      Alcotest.(check int) "both table findings absorbed" 2
        (List.length baselined);
      Alcotest.(check (list string))
        "other symbols still fire"
        [ "Fix.cold_box"; "Fix.raw_hits" ]
        (syms ~rule:"shared-mutable-global" kept))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let test_json_report_carries_class () =
  let findings = rules_findings () in
  Alcotest.(check bool)
    "every domain finding is classified" true
    (List.for_all (fun f -> f.Finding.classification <> "") findings);
  let doc = Report.json_of ~findings ~suppressed:0 ~files:1 in
  Alcotest.(check bool)
    "JSON payload carries the classification" true
    (contains ~needle:{|"class":"shared-mutable"|} doc)

let tests =
  [
    Alcotest.test_case "classification lattice" `Quick test_classification;
    Alcotest.test_case "closure capture is state" `Quick test_closure_capture;
    Alcotest.test_case "shared-mutable-global fires" `Quick
      test_shared_mutable_global;
    Alcotest.test_case "shard-unsafe-reach needs a hot path" `Quick
      test_shard_unsafe_reach;
    Alcotest.test_case "nonatomic-counter spares Atomic" `Quick
      test_nonatomic_counter;
    Alcotest.test_case "Domain.spawn closure is a shard root" `Quick
      test_spawn_closure_is_shard_root;
    Alcotest.test_case "no spawn means no shard root" `Quick
      test_no_spawn_means_no_shard_root;
    Alcotest.test_case "parameter-threaded RMW is clean" `Quick
      test_param_rmw_is_clean;
    Alcotest.test_case "baseline absorbs domain findings" `Quick
      test_baseline_absorbs_domain_finding;
    Alcotest.test_case "JSON report carries classification" `Quick
      test_json_report_carries_class;
  ]
