(* planck-lint: static analysis for the Planck reproduction.

   Usage: planck_lint [--json] [--out FILE] [--list-rules]
                      [--cmt-dir DIR] [--baseline FILE] PATH...

   Loads the repo's .cmt typedtree artifacts (build first) and runs the
   typed rules — call-graph reachability for the hot-path rules,
   instantiated-type checks, interprocedural determinism taint, the
   dead-export analysis and the domain tier — plus the syntactic AST
   pass for the rules that need no types. Inline
   [planck-lint: allow] directives and the justified baseline are the
   only ways to accept a finding.

   Exits 1 when any error-severity finding survives suppressions and
   the baseline, 2 on a usage error, a malformed baseline, or a run
   that finds no .cmt artifacts. *)

module F = Planck_lint_lib.Lint_finding
module Engine = Planck_lint_lib.Lint_engine
module Report = Planck_lint_lib.Lint_report

let () =
  let json = ref false in
  let out = ref "" in
  let list_rules = ref false in
  let cmt_dirs = ref [] in
  let baseline = ref "" in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit the machine-readable JSON report");
      ("--out", Arg.Set_string out, "FILE write the report to FILE instead of stdout");
      ("--list-rules", Arg.Set list_rules, " print the rule catalog and exit");
      ( "--cmt-dir",
        Arg.String (fun d -> cmt_dirs := d :: !cmt_dirs),
        "DIR scan DIR recursively for .cmt/.cmti artifacts (repeatable; \
         default _build/default, or . when absent)" );
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE finding baseline file (default tools/lint/lint_baseline.txt \
         when present)" );
    ]
  in
  let usage = "planck_lint [options] PATH..." in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    print_string (Report.rules_text ());
    exit 0
  end;
  if !paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let cmt_dirs =
    match List.rev !cmt_dirs with
    | [] ->
        if Sys.file_exists "_build/default" then [ "_build/default" ] else [ "." ]
    | dirs -> dirs
  in
  let default_baseline = "tools/lint/lint_baseline.txt" in
  let baseline_file =
    if !baseline <> "" then Some !baseline
    else if Sys.file_exists default_baseline then Some default_baseline
    else None
  in
  let opts = { Engine.cmt_dirs; baseline_file; dead_export = true } in
  let result =
    try Engine.lint_paths opts (List.rev !paths)
    with Failure msg ->
      prerr_endline ("planck_lint: " ^ msg);
      exit 2
  in
  let findings = result.Engine.kept in
  let suppressed =
    result.Engine.suppressed_count + result.Engine.baselined_count
  in
  let files = result.Engine.files_linted in
  let rendered =
    if !json then Report.json_of ~findings ~suppressed ~files
    else Report.text_of ~findings ~suppressed ~files
  in
  (if !out = "" then print_string rendered
   else
     let oc = open_out !out in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc rendered));
  let errors = List.exists (fun f -> f.F.severity = F.Error) findings in
  exit (if errors then 1 else 0)
