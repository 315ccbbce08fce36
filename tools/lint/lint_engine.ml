module F = Lint_finding

(* ---- Suppression directives ----

   Inline comments of the form

     (* planck-lint: allow <rule> [<rule> ...] -- justification *)
     (* planck-lint: allow-file <rule> -- justification *)

   [allow] covers findings on the same line or the line immediately
   below the directive; [allow-file] covers the whole file. Rule names
   are taken from the catalog; the first token that is not a known rule
   id (or "all") ends the rule list, so justifications need no special
   delimiter. *)

type directive = { d_line : int; d_rules : string list; d_file_wide : bool }

let find_substring hay needle start =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go start

let is_rule_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

let parse_directive_line ~line_number line =
  match find_substring line "planck-lint:" 0 with
  | None -> None
  | Some i ->
      let rest = String.sub line (i + 12) (String.length line - i - 12) in
      let rest = String.trim rest in
      let file_wide, rest =
        if String.length rest >= 10 && String.sub rest 0 10 = "allow-file" then
          (true, String.sub rest 10 (String.length rest - 10))
        else if String.length rest >= 5 && String.sub rest 0 5 = "allow" then
          (false, String.sub rest 5 (String.length rest - 5))
        else (false, "")
      in
      let tokens =
        String.split_on_char ' ' (String.map (function '\t' | ',' -> ' ' | c -> c) rest)
        |> List.filter (fun t -> t <> "")
      in
      let rec take acc = function
        | t :: rest
          when String.length t > 0
               && String.for_all is_rule_char t
               && Lint_rules.is_known t ->
            take (t :: acc) rest
        | _ -> List.rev acc
      in
      let rules = take [] tokens in
      if rules = [] then None
      else Some { d_line = line_number; d_rules = rules; d_file_wide = file_wide }

let parse_directives source =
  String.split_on_char '\n' source
  |> List.mapi (fun i line -> parse_directive_line ~line_number:(i + 1) line)
  |> List.filter_map Fun.id

let suppressed directives (f : F.t) =
  List.exists
    (fun d ->
      (d.d_file_wide || d.d_line = f.line || d.d_line = f.line - 1)
      && (List.mem "all" d.d_rules || List.mem f.rule d.d_rules))
    directives

(* ---- Parsing & per-file lint ---- *)

let parse_error_finding ~path exn =
  let line, col, message =
    match Location.error_of_exn exn with
    | Some (`Ok err) ->
        let loc = err.Location.main.Location.loc in
        let pos = loc.Location.loc_start in
        ( pos.Lexing.pos_lnum,
          pos.Lexing.pos_cnum - pos.Lexing.pos_bol,
          Format.asprintf "%t" err.Location.main.Location.txt )
    | _ -> (1, 0, Printexc.to_string exn)
  in
  F.v ~rule:"parse-error" ~severity:F.Error ~file:path ~line ~col message

let lint_source ?(extra = []) ~path ~source () =
  let directives = parse_directives source in
  let ast_findings =
    let lexbuf = Lexing.from_string source in
    Lexing.set_filename lexbuf path;
    Location.init lexbuf path;
    match Parse.implementation lexbuf with
    | str -> Lint_rules.check_structure ~path str
    | exception exn -> [ parse_error_finding ~path exn ]
  in
  List.partition
    (fun f -> not (suppressed directives f))
    (ast_findings @ extra)

(* ---- Tree walking ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec collect_files acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if String.length entry > 0 && entry.[0] = '.' then acc
           else if entry = "_build" then acc
           else collect_files acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

type result = {
  kept : F.t list;  (** unsuppressed findings, sorted by location *)
  suppressed_count : int;
  baselined_count : int;
  files_linted : int;
  typed_units : int;
}

type options = {
  cmt_dirs : string list;
  baseline_file : string option;
  dead_export : bool;
}

(* Run the typed tiers over the cmt index. Returns the per-file map of
   their findings for the walked file set (findings on files outside
   the walk, e.g. test/ when linting lib bin, are dropped: the walk
   defines the lint scope), the stale-baseline findings, the number of
   baselined findings and the number of indexed units. *)
let typed_findings opts ~walked =
  let ix = Lint_cmt_index.load ~dirs:opts.cmt_dirs in
  if Lint_cmt_index.unit_count ix = 0 then
    failwith
      (Printf.sprintf
         "no .cmt artifacts under %s; build first (dune build) or pass \
          --cmt-dir"
         (String.concat ", " opts.cmt_dirs));
  let dr = Lint_deep_rules.prepare ix in
  let findings =
    Lint_deep_rules.findings ~dead_export:opts.dead_export dr
    @ Lint_domain_rules.findings dr
  in
  let entries, stale =
    match opts.baseline_file with
    | None -> ([], [])
    | Some p when not (Sys.file_exists p) -> ([], [])
    | Some p -> (
        match Lint_deep_rules.load_baseline p with
        | Error e -> failwith ("baseline: " ^ e)
        | Ok entries ->
            (* every rule but dead-export always runs *)
            let ran rule = opts.dead_export || rule <> "dead-export" in
            (entries, Lint_deep_rules.stale_baseline ~file:p ~ran entries findings))
  in
  let kept, baselined = Lint_deep_rules.apply_baseline entries findings in
  let by_file = Hashtbl.create 64 in
  List.iter
    (fun (f : F.t) ->
      if Hashtbl.mem walked f.F.file then
        Hashtbl.replace by_file f.F.file
          (f :: Option.value (Hashtbl.find_opt by_file f.F.file) ~default:[]))
    kept;
  (by_file, stale, List.length baselined, Lint_cmt_index.unit_count ix)

let lint_paths opts paths =
  let files =
    List.fold_left collect_files [] paths |> List.sort_uniq String.compare
  in
  let mli_set = Hashtbl.create 64 in
  List.iter
    (fun f -> if Filename.check_suffix f ".mli" then Hashtbl.replace mli_set f ())
    files;
  let walked = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace walked f ()) files;
  let typed_by_file, stale, baselined_count, typed_units =
    typed_findings opts ~walked
  in
  let kept = ref stale and suppressed_count = ref 0 and files_linted = ref 0 in
  List.iter
    (fun path ->
      let typed =
        Option.value (Hashtbl.find_opt typed_by_file path) ~default:[]
      in
      if Filename.check_suffix path ".ml" then begin
        incr files_linted;
        let source = read_file path in
        let extra =
          Lint_rules.missing_mli ~path ~has_mli:(Hashtbl.mem mli_set (path ^ "i"))
          @ typed
        in
        let keep, drop = lint_source ~extra ~path ~source () in
        kept := keep @ !kept;
        suppressed_count := !suppressed_count + List.length drop
      end
      else if typed <> [] then begin
        (* .mli file carrying typed findings (dead-export): apply its
           suppression directives, no AST pass *)
        let directives = parse_directives (read_file path) in
        let keep, drop =
          List.partition (fun f -> not (suppressed directives f)) typed
        in
        kept := keep @ !kept;
        suppressed_count := !suppressed_count + List.length drop
      end)
    files;
  {
    kept = List.sort F.compare_by_location !kept;
    suppressed_count = !suppressed_count;
    baselined_count;
    files_linted = !files_linted;
    typed_units;
  }
