(* planck_lint: one positive and one negative fixture per syntactic
   rule, the suppression syntax, both reporters, and self-checks that
   the repo's own tree is lint-clean and that a run without .cmt
   artifacts fails. Fixtures go through Lint_engine.lint_source, which
   parses from a string — the paths never exist on disk; they only
   drive rule scoping. The typed rules have their fixtures in
   test_lint_deep and test_lint_domain. *)

module Engine = Planck_lint_lib.Lint_engine
module Rules = Planck_lint_lib.Lint_rules
module Report = Planck_lint_lib.Lint_report
module Finding = Planck_lint_lib.Lint_finding
module Json = Planck_telemetry.Json

let kept ~path source = fst (Engine.lint_source ~path ~source ())
let rules_of ~path source = List.map (fun f -> f.Finding.rule) (kept ~path source)

let check_fires name rule ~path source =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s" name rule)
    true
    (List.mem rule (rules_of ~path source))

let check_clean name ~path source =
  Alcotest.(check (list string)) (Printf.sprintf "%s is clean" name) []
    (rules_of ~path source)

(* ---- syntactic rules ---- *)

let test_keyed_poly_equal () =
  let keyed body =
    "type t = { a : int; b : int }\n"
    ^ "let compare x y = Int.compare x.a y.a\n" ^ body
  in
  check_fires "keyed module" "keyed-poly-equal" ~path:"lib/packet/k.ml"
    (keyed "let equal x y = x = y\n");
  (* constants on one side keep structural = acceptable *)
  check_clean "vs constant" ~path:"lib/packet/k.ml"
    (keyed "let is_origin x = x.a = 0\n");
  (* a module with no key functions is not held to the rule *)
  check_clean "unkeyed module" ~path:"lib/packet/k.ml"
    "type t = { a : int }\nlet same x y = x = y\n"

(* ---- hygiene rules ---- *)

let test_missing_mli () =
  let fires path has_mli =
    List.map (fun f -> f.Finding.rule) (Rules.missing_mli ~path ~has_mli)
  in
  Alcotest.(check (list string)) "lib .ml without .mli" [ "missing-mli" ]
    (fires "lib/util/x.ml" false);
  Alcotest.(check (list string)) "lib .ml with .mli" [] (fires "lib/util/x.ml" true);
  Alcotest.(check (list string)) "bin .ml without .mli" []
    (fires "bin/main.ml" false)

let test_open_lib () =
  check_fires "whole-library open" "open-lib" ~path:"lib/collector/c.ml"
    "open Planck_util\nlet x = 1\n";
  check_clean "submodule open" ~path:"lib/collector/c.ml"
    "open Planck_util.Time\nlet x = 1\n";
  check_clean "alias" ~path:"lib/collector/c.ml"
    "module Time = Planck_util.Time\nlet x = 1\n";
  check_clean "outside lib" ~path:"bin/main.ml" "open Planck_util\nlet x = 1\n"

let test_ignored_result () =
  check_fires "ignored result call" "ignored-result" ~path:"lib/util/x.ml"
    "let f s = ignore (Json.parse s)\n";
  check_fires "_result suffix" "ignored-result" ~path:"lib/util/x.ml"
    "let f s = ignore (load_result s)\n";
  check_clean "ignored plain call" ~path:"lib/util/x.ml"
    "let f xs = ignore (List.length xs)\n"

let test_parse_error () =
  let findings = kept ~path:"lib/util/broken.ml" "let x = \n" in
  Alcotest.(check (list string)) "parse error reported" [ "parse-error" ]
    (List.map (fun f -> f.Finding.rule) findings)

(* ---- suppression directives ---- *)

let test_suppression () =
  let src_inline =
    "(* planck-lint: allow ignored-result -- fixture *)\n\
     let f s = ignore (Json.parse s)\n"
  in
  let k, s = Engine.lint_source ~path:"lib/netsim/c.ml" ~source:src_inline () in
  Alcotest.(check int) "allow covers next line: kept" 0 (List.length k);
  Alcotest.(check int) "allow covers next line: suppressed" 1 (List.length s);
  (* the directive names a specific rule; others still fire *)
  let src_wrong =
    "(* planck-lint: allow hot-alloc -- fixture *)\n\
     let f s = ignore (Json.parse s)\n"
  in
  check_fires "unrelated allow" "ignored-result" ~path:"lib/netsim/c.ml"
    src_wrong;
  let src_file =
    "(* planck-lint: allow-file open-lib ignored-result -- fixture *)\n\
     open Planck_util\n\
     let f s = ignore (Json.parse s)\n"
  in
  let k, s = Engine.lint_source ~path:"lib/netsim/c.ml" ~source:src_file () in
  Alcotest.(check int) "allow-file: kept" 0 (List.length k);
  Alcotest.(check int) "allow-file: suppressed" 2 (List.length s)

(* ---- reporters ---- *)

let two_findings () =
  kept ~path:"lib/netsim/fixture.ml"
    "open Planck_util\nlet f s = ignore (Json.parse s)\n"

let test_text_report () =
  let findings = two_findings () in
  let text = Report.text_of ~findings ~suppressed:1 ~files:1 in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "file:line:col prefix" true
    (contains "lib/netsim/fixture.ml:1:5:");
  Alcotest.(check bool) "rule tag" true (contains "[open-lib]");
  Alcotest.(check bool) "summary" true
    (contains "planck-lint: 1 file, 2 errors, 0 warnings, 1 suppressed")

let test_json_report () =
  let findings = two_findings () in
  let doc =
    match Json.of_string (Report.json_of ~findings ~suppressed:1 ~files:1) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "report is not valid JSON: %s" e
  in
  let int_field k =
    Option.get (Json.to_int_opt (Option.get (Json.member doc k)))
  in
  Alcotest.(check int) "version" 1 (int_field "version");
  Alcotest.(check int) "files" 1 (int_field "files");
  Alcotest.(check int) "errors" 2 (int_field "errors");
  Alcotest.(check int) "warnings" 0 (int_field "warnings");
  Alcotest.(check int) "suppressed" 1 (int_field "suppressed");
  let listed =
    Option.get (Json.to_list_opt (Option.get (Json.member doc "findings")))
  in
  Alcotest.(check int) "findings count" 2 (List.length listed);
  let first = List.hd listed in
  let str_field k =
    Option.get (Json.to_string_opt (Option.get (Json.member first k)))
  in
  Alcotest.(check string) "rule round-trips" "open-lib" (str_field "rule");
  Alcotest.(check string) "file round-trips" "lib/netsim/fixture.ml"
    (str_field "file");
  Alcotest.(check string) "severity round-trips" "error" (str_field "severity")

(* ---- JSON string escaping ----

   The report escaper must emit valid JSON for any byte string: control
   characters as escapes, well-formed UTF-8 verbatim (exact round-trip),
   malformed bytes sanitised. Round-trips go through the repo's own
   telemetry JSON parser. *)

let message_of_report source =
  let findings =
    [
      Finding.v ~rule:"open-lib" ~severity:Finding.Error ~file:"lib/x.ml"
        ~line:1 ~col:0 source;
    ]
  in
  match Json.of_string (Report.json_of ~findings ~suppressed:0 ~files:1) with
  | Error e -> Alcotest.failf "report is not valid JSON: %s" e
  | Ok doc ->
      let listed =
        Option.get (Json.to_list_opt (Option.get (Json.member doc "findings")))
      in
      Option.get
        (Json.to_string_opt (Option.get (Json.member (List.hd listed) "message")))

(* Valid UTF-8 strings built from scalar values, biased toward the
   interesting regions: ASCII controls, quotes and backslashes, and 2-,
   3-, and 4-byte sequences. *)
let utf8_gen =
  let open QCheck.Gen in
  let scalar =
    frequency
      [
        (4, int_range 0x00 0x1F); (* controls: must escape *)
        (2, oneofl [ 0x22; 0x5C; 0x2F ]); (* quote, backslash, slash *)
        (8, int_range 0x20 0x7E);
        (3, int_range 0x80 0x7FF);
        (3, int_range 0x800 0xD7FF); (* stops before surrogates *)
        (2, int_range 0xE000 0xFFFF);
        (2, int_range 0x10000 0x10FFFF);
      ]
  in
  let encode cps =
    let b = Buffer.create 32 in
    List.iter (fun cp -> Buffer.add_utf_8_uchar b (Uchar.of_int cp)) cps;
    Buffer.contents b
  in
  map encode (list_size (int_range 0 24) scalar)

let json_escape_round_trip_qcheck =
  QCheck.Test.make ~name:"valid UTF-8 report strings round-trip exactly"
    ~count:500
    (QCheck.make ~print:String.escaped utf8_gen)
    (fun s -> String.equal (message_of_report s) s)

let json_escape_any_bytes_qcheck =
  QCheck.Test.make
    ~name:"arbitrary bytes (incl. malformed UTF-8) still yield valid JSON"
    ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 24))
    (fun s -> ignore (message_of_report s : string); true)

let test_json_escape_fixed () =
  (* A known-answer row: NUL, tab, quote, backslash, a 2-byte and a
     4-byte sequence survive unchanged through escape + parse. *)
  let s = "a\x00\t\"\\\xc3\xa9\xf0\x9f\x90\xab end" in
  Alcotest.(check string) "fixed vector round-trips" s (message_of_report s);
  (* A lone continuation byte is malformed: the report must still be
     parseable JSON (the byte is sanitised, not round-tripped). *)
  ignore (message_of_report "bad \x80 byte" : string)

(* ---- no .cmt artifacts: build first ---- *)

(* The typed tiers are the only implementation of most rules, so a run
   that indexes no unit must fail instead of passing vacuously. *)
let test_no_cmt_fails () =
  let dir = Filename.temp_file "planck_no_cmt" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      let opts =
        {
          Engine.cmt_dirs = [ dir ];
          baseline_file = None;
          dead_export = true;
        }
      in
      match Engine.lint_paths opts [ dir ] with
      | _ -> Alcotest.fail "a run over an empty .cmt directory must fail"
      | exception Failure msg ->
          Alcotest.(check bool)
            "the message says to build first" true
            (let needle = "build first" in
             let n = String.length needle and h = String.length msg in
             let rec go i =
               i + n <= h && (String.sub msg i n = needle || go (i + 1))
             in
             go 0))

(* ---- the repo is lint-clean ---- *)

let test_repo_clean () =
  (* The build root, where dune places the source copies of lib/. *)
  let cwd = Sys.getcwd () in
  let root = Test_lint_deep.build_root () in
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      Sys.chdir root;
      (* The build tree's own .cmt files, the same configuration CI
         enforces. Dead-export needs bin/bench cmts for references,
         which a bare runtest need not have built, so it stays off
         here (and its baseline entries are not judged stale). The
         domain tier always runs, so the committed baseline (which
         absorbs the justified singletons) applies, and every entry
         must still match a finding. *)
      let opts =
        {
          Engine.cmt_dirs = [ "." ];
          baseline_file = Some "tools/lint/lint_baseline.txt";
          dead_export = false;
        }
      in
      let r = Engine.lint_paths opts [ "lib" ] in
      Alcotest.(check (list string)) "no unsuppressed findings in lib/" []
        (List.map
           (fun f ->
             Printf.sprintf "%s:%d [%s]" f.Finding.file f.Finding.line
               f.Finding.rule)
           r.Engine.kept);
      Alcotest.(check bool) "indexed the build tree" true
        (r.Engine.typed_units > 20);
      Alcotest.(check bool) "linted a non-trivial tree" true
        (r.Engine.files_linted > 20))

let tests =
  [
    Alcotest.test_case "keyed-poly-equal rule" `Quick test_keyed_poly_equal;
    Alcotest.test_case "missing-mli rule" `Quick test_missing_mli;
    Alcotest.test_case "open-lib rule" `Quick test_open_lib;
    Alcotest.test_case "ignored-result rule" `Quick test_ignored_result;
    Alcotest.test_case "parse-error rule" `Quick test_parse_error;
    Alcotest.test_case "suppression directives" `Quick test_suppression;
    Alcotest.test_case "text report" `Quick test_text_report;
    Alcotest.test_case "json report" `Quick test_json_report;
    Alcotest.test_case "json escaping fixed vectors" `Quick
      test_json_escape_fixed;
    QCheck_alcotest.to_alcotest json_escape_round_trip_qcheck;
    QCheck_alcotest.to_alcotest json_escape_any_bytes_qcheck;
    Alcotest.test_case "run without .cmt artifacts fails" `Quick
      test_no_cmt_fails;
    Alcotest.test_case "repo tree is lint-clean" `Quick test_repo_clean;
  ]

let () =
  Run_suites.run "planck-lint"
    [
      ("lint", tests);
      ("lint-deep", Test_lint_deep.tests);
      ("lint-domain", Test_lint_domain.tests);
    ]
