(* The rule catalog and the syntactic checker.

   Most rules are typed: Lint_deep_rules, Lint_taint and
   Lint_domain_rules implement them over the .cmt index. The AST pass
   here covers only what needs no types: keyed-poly-equal, open-lib
   and ignored-result, plus the file-level missing-mli and the
   parse-error report. Imprecision is resolved toward fewer false
   positives; the suppression syntax exists for the rest. *)

open Parsetree
module F = Lint_finding

type rule = {
  id : string;
  group : string;
  default_severity : F.severity;
  doc : string;
}

let catalog =
  [
    {
      id = "poly-compare";
      group = "hotpath";
      default_severity = F.Error;
      doc =
        "Polymorphic compare / Hashtbl.hash instantiated at a non-immediate \
         type in lib/ walks structure at runtime and orders floats by bit \
         pattern; so does structural =/<> on a structured or polymorphic \
         type in a def reachable from the per-packet/per-event hot roots. \
         Use Int.compare, Float.compare, String.compare or the key \
         module's explicit comparator/hash.";
    };
    {
      id = "keyed-poly-equal";
      group = "hotpath";
      default_severity = F.Error;
      doc =
        "Structural =/<> inside a module that defines a custom key type \
         (a record/variant plus equal/compare/hash). Write the field-wise \
         comparison so the representation stays under the module's control.";
    };
    {
      id = "float-equality";
      group = "hotpath";
      default_severity = F.Error;
      doc =
        "=/<> instantiated at float in lib/ is a structural compare on bit \
         patterns and is usually a logic smell. Use Float.equal, an \
         epsilon, or an ordering test.";
    };
    {
      id = "hot-alloc";
      group = "hotpath";
      default_severity = F.Error;
      doc =
        "Printf/Format/string concatenation in a lib/ def reachable from \
         the per-packet/per-event hot roots (switch ingress, collector \
         sample path, engine and timer-wheel dispatch, tcp segment \
         handling); arguments of raise-family calls are exempt. Format off \
         the hot path, or guard behind an enabled-flag branch and suppress \
         with a justification.";
    };
    {
      id = "hot-schedule";
      group = "hotpath";
      default_severity = F.Error;
      doc =
        "A closure literal passed to Engine.schedule/schedule_at/every in \
         a lib/ def reachable from the hot roots allocates a fresh closure \
         per event and cannot be cancelled; preallocate an Engine.Timer.t \
         handle and reschedule it.";
    };
    {
      id = "missing-mli";
      group = "hygiene";
      default_severity = F.Error;
      doc =
        "Every lib/ module ships an .mli so the public surface is explicit \
         and the compiler can prune dead exports.";
    };
    {
      id = "open-lib";
      group = "hygiene";
      default_severity = F.Error;
      doc =
        "No structure-level open of a whole Planck library inside lib/ \
         implementation files. Alias (module T = Planck_util.Time) or \
         qualify; local opens in expressions are allowed.";
    };
    {
      id = "ignored-result";
      group = "hygiene";
      default_severity = F.Error;
      doc =
        "ignore on a result-returning call silently drops the Error case; \
         match on it or fail loudly.";
    };
    {
      id = "parse-error";
      group = "hygiene";
      default_severity = F.Error;
      doc = "The file does not parse; all other rules are moot until it does.";
    };
    {
      id = "determinism-taint";
      group = "determinism";
      default_severity = F.Error;
      doc =
        "A wall-clock / ambient-random / hashtbl-iteration-order value \
         flows (interprocedurally, along the call graph) into sim-visible \
         state — journal or time-series payloads, engine scheduling, or a \
         routing/TE decision. The finding cites the witness chain; derive \
         the value from Engine.now or a seeded Planck_util.Prng instead.";
    };
    {
      id = "shared-mutable-global";
      group = "domain";
      default_severity = F.Error;
      doc =
        "A toplevel lib/ binding holds mutable state that is neither \
         engine-scoped (reachable only through a handle) nor wrapped in \
         Stdlib.Atomic — it will race the moment two shards run on \
         separate domains. Confine it, convert it, or baseline it with a \
         justification.";
    };
    {
      id = "shard-unsafe-reach";
      group = "domain";
      default_severity = F.Error;
      doc =
        "Shared-mutable state transitively reachable from the \
         per-packet/per-event hot roots — exactly the code that will run \
         concurrently on every shard. The finding cites the witness chain \
         from the hot root to the state.";
    };
    {
      id = "nonatomic-counter";
      group = "domain";
      default_severity = F.Error;
      doc =
        "A read-modify-write (incr/decr, or := fed by ! / a mutable-field \
         update) on shared-mutable state; a concurrent shard can \
         interleave between the read and the write. Use \
         Atomic.fetch_and_add or a compare_and_set loop.";
    };
    {
      id = "dead-export";
      group = "hygiene";
      default_severity = F.Error;
      doc =
        "A value exported by a lib/ or tools/ .mli is never referenced \
         outside its own module. Delete the export (and the binding, if \
         nothing else uses it) or baseline it with a one-line \
         justification.";
    };
    {
      id = "stale-baseline";
      group = "hygiene";
      default_severity = F.Error;
      doc =
        "A baseline entry matches no finding of a rule that ran: the code \
         stopped needing it. Delete the entry.";
    };
  ]

let find id = List.find_opt (fun r -> r.id = id) catalog
let is_known id = Option.is_some (find id) || id = "all"

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p
let in_lib path = has_prefix "lib/" path

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> flatten_lid p @ [ s ]
  | Longident.Lapply (a, b) -> flatten_lid a @ flatten_lid b

(* ---- Checker context ---- *)

type ctx = { path : string; c_keyed : bool; mutable findings : F.t list }

let report ctx ~loc ~rule message =
  let pos = loc.Location.loc_start in
  ctx.findings <-
    F.v ~rule ~severity:F.Error ~file:ctx.path ~line:pos.Lexing.pos_lnum
      ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
      message
    :: ctx.findings

let rec pat_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> pat_name p
  | _ -> None

(* Does the structure define a custom key type: a record/variant type
   together with a top-level equal/compare/hash binding? *)
let defines_keyed_type str =
  let structured = ref false and keyfun = ref false in
  let rec item si =
    match si.pstr_desc with
    | Pstr_type (_, tds) ->
        List.iter
          (fun td ->
            match td.ptype_kind with
            | Ptype_record _ | Ptype_variant _ -> structured := true
            | Ptype_abstract | Ptype_open -> ())
          tds
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match pat_name vb.pvb_pat with
            | Some ("equal" | "compare" | "hash") -> keyfun := true
            | _ -> ())
          vbs
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter item s
    | _ -> ()
  in
  List.iter item str;
  !structured && !keyfun

(* Operands that make structural =/<> acceptable in a keyed module:
   literals, constructors (None, [], flags) and qualified constants. *)
let is_constantish e =
  match e.pexp_desc with
  | Pexp_constant _ | Pexp_construct _ | Pexp_variant _ -> true
  | Pexp_ident { txt = Longident.Ldot _; _ } -> true
  | _ -> false

let result_returning_call e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match flatten_lid txt with
      | "Result" :: _ :: _ -> true
      | path -> (
          match List.rev path with
          | last :: _ ->
              let n = String.length last in
              (n > 7 && String.sub last (n - 7) 7 = "_result")
              || List.mem last [ "of_ndjson"; "of_csv"; "of_json" ]
              || List.mem path [ [ "Json"; "parse" ] ]
          | [] -> false))
  | _ -> false

let check_apply ctx whole fn args =
  match (fn.pexp_desc, args) with
  | ( Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ },
      [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] )
    when ctx.c_keyed && (not (is_constantish a)) && not (is_constantish b) ->
      report ctx ~loc:whole.pexp_loc ~rule:"keyed-poly-equal"
        (Printf.sprintf
           "structural (%s) in a module defining a custom key type; write \
            the field-wise comparison"
           op)
  | ( Pexp_ident { txt = Longident.Lident "ignore"; _ },
      [ (Asttypes.Nolabel, arg) ] )
    when in_lib ctx.path && result_returning_call arg ->
      report ctx ~loc:whole.pexp_loc ~rule:"ignored-result"
        "ignore of a result-returning call drops the Error case; match on it"
  | _ -> ()

(* ---- The iterator ---- *)

let check_structure ~path str =
  let ctx =
    { path; c_keyed = in_lib path && defines_keyed_type str; findings = [] }
  in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (fn, args) -> check_apply ctx e fn args
          | _ -> ());
          default.expr it e);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_open
              { popen_expr = { pmod_desc = Pmod_ident { txt; loc }; _ }; _ }
            when in_lib path -> (
              match flatten_lid txt with
              | [ m ] when has_prefix "Planck" m ->
                  report ctx ~loc ~rule:"open-lib"
                    (Printf.sprintf
                       "structure-level open of the whole %s library; alias \
                        the submodules you need or qualify"
                       m)
              | _ -> ())
          | _ -> ());
          default.structure_item it si);
    }
  in
  iter.structure iter str;
  List.rev ctx.findings

(* ---- File-level rule ---- *)

let missing_mli ~path ~has_mli =
  if in_lib path && Filename.check_suffix path ".ml" && not has_mli then
    [
      F.v ~rule:"missing-mli" ~severity:F.Error ~file:path ~line:1 ~col:0
        (Printf.sprintf
           "%s has no interface; add %si so the public surface is explicit"
           (Filename.basename path) (Filename.basename path));
    ]
  else []
