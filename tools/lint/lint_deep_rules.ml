(* The deep (typed, whole-repo) rule tier.

   Where the syntactic tier scopes "hot" by hot-dir × hot-stem filename
   heuristics, this tier computes the hot set as a forward reachability
   closure over the real call graph, seeded from the per-packet /
   per-event roots (switch ingress, collector sample path, engine and
   timer-wheel dispatch, tcp segment handling). A cold-named helper the
   timer wheel actually calls per event is hot here; a hot-named
   function nothing per-packet reaches is not.

   Poly-compare is type-aware: we look at the *instantiated* type of the
   compare/=/hash argument, so [compare (a : int) b] is clean without
   any shadow table, and [=] on a structured type only fires where it
   can actually run per packet.

   Findings reuse the syntactic rule ids (hot-alloc, hot-schedule,
   poly-compare, float-equality) so existing inline suppressions carry
   over, plus the new dead-export rule. Determinism taint lives in
   [Lint_taint]. *)

module SS = Set.Make (String)
module F = Lint_finding
module Ix = Lint_cmt_index

(* Per-packet / per-event entry points (PAPER.md §4: the mirror→
   collector sample path; DESIGN.md: engine dispatch). Roots that do
   not exist in the index simply contribute nothing. *)
let default_hot_roots =
  [
    (* switch data plane *)
    "Planck_netsim__Switch.ingress";
    "Planck_netsim__Switch.inject";
    "Planck_netsim__Switch.on_pipeline";
    "Planck_netsim__Sink.ingress";
    "Planck_netsim__Sink.drain";
    (* the timer-driven hop: NIC and port queues, stack delays *)
    "Planck_netsim__Txport.enqueue";
    "Planck_netsim__Txport.on_tx_done";
    "Planck_netsim__Txport.on_delivery";
    "Planck_netsim__Host.send";
    "Planck_netsim__Host.ingress";
    "Planck_netsim__Host.on_send_ready";
    "Planck_netsim__Host.on_recv_ready";
    (* collector sample path *)
    "Planck_collector__Collector.process";
    (* sketch tier: the collector reaches these through a backend
       record, which the callgraph cannot see through — root them *)
    "Planck_sketch__Count_min.update";
    "Planck_sketch__Tiered_table.sample";
    "Planck_sketch__Tiered_table.tick";
    (* tcp segment handling *)
    "Planck_tcp__Flow.sender_receive";
    "Planck_tcp__Flow.receiver_receive";
    "Planck_tcp__Flow.on_timeout";
    "Planck_tcp__Flow.try_send";
    (* engine / timer-wheel dispatch *)
    "Planck_netsim__Engine.step";
    "Planck_netsim__Engine.Timer.reschedule_at";
    "Planck_util__Timer_wheel.add";
    "Planck_util__Timer_wheel.next_key";
    "Planck_util__Timer_wheel.take";
    "Planck_util__Timer_wheel.cancel";
    (* self-profiling spans bracket every hot path above; the disabled
       branch must stay allocation-free *)
    "Planck_telemetry__Profile.enter";
    "Planck_telemetry__Profile.exit";
  ]

type t = {
  ix : Ix.t;
  hot : Lint_callgraph.closure;
  roots : string list;
}

let prepare ?(hot_roots = default_hot_roots) ix =
  { ix; hot = Lint_callgraph.forward ix ~roots:hot_roots; roots = hot_roots }

let index t = t.ix
let roots t = t.roots
let is_hot t id = Lint_callgraph.mem t.hot id
let hot_set t = Lint_callgraph.elements t.hot
let hot_chain t id = Lint_callgraph.chain_string t.hot id

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_lib file = starts_with ~prefix:"lib/" file

let mk ~rule ~symbol (e : Ix.event) message =
  F.v ~symbol ~rule ~severity:F.Error ~file:e.Ix.e_file ~line:e.Ix.e_line
    ~col:e.Ix.e_col message

let shape_unsafe = function
  | Ix.Imm -> false
  | Ix.TFloat | Ix.TString | Ix.TPoly | Ix.TOther _ -> true

(* structured or still-polymorphic: the shapes where structural =/<>
   walks unbounded structure (strings excluded — String =/<> is
   deterministic, allocation-free and idiomatic) *)
let shape_structured = function
  | Ix.TPoly | Ix.TOther _ -> true
  | Ix.Imm | Ix.TFloat | Ix.TString -> false

let event_findings t =
  List.filter_map
    (fun (e : Ix.event) ->
      let hot = is_hot t e.Ix.e_def in
      match e.Ix.e_kind with
      | Ix.Poly_fun { op; shape; rendered } ->
          if in_lib e.Ix.e_file && shape_unsafe shape then
            Some
              (mk ~rule:"poly-compare" ~symbol:e.Ix.e_def e
                 (Printf.sprintf
                    "%s instantiated at %s walks structure at runtime; use \
                     the type's explicit comparator/hash (Int.compare, \
                     Float.compare, String.compare, Flow_key.hash, ...)"
                    op rendered))
          else None
      | Ix.Poly_eq { op; shape = Ix.TFloat; constantish = _; _ } ->
          if in_lib e.Ix.e_file then
            Some
              (mk ~rule:"float-equality" ~symbol:e.Ix.e_def e
                 (Printf.sprintf
                    "(%s) instantiated at float is a structural compare on \
                     bit patterns; use Float.equal, an epsilon, or an \
                     ordering test"
                    op))
          else None
      | Ix.Poly_eq { op; shape; rendered; constantish } ->
          if hot && shape_structured shape && not constantish then
            Some
              (mk ~rule:"poly-compare" ~symbol:e.Ix.e_def e
                 (Printf.sprintf
                    "structural (%s) at %s on the per-packet path (%s); \
                     write the field-wise equality"
                    op rendered (hot_chain t e.Ix.e_def)))
          else None
      | Ix.Alloc name ->
          if hot && in_lib e.Ix.e_file && not e.Ix.e_in_raise then
            Some
              (mk ~rule:"hot-alloc" ~symbol:e.Ix.e_def e
                 (Printf.sprintf
                    "%s allocates on the per-packet path (%s); format off \
                     the hot path or guard and suppress with a justification"
                    name (hot_chain t e.Ix.e_def)))
          else None
      | Ix.Schedule_closure name ->
          if hot && in_lib e.Ix.e_file then
            Some
              (mk ~rule:"hot-schedule" ~symbol:e.Ix.e_def e
                 (Printf.sprintf
                    "closure literal passed to %s on the per-packet path \
                     (%s); preallocate an Engine.Timer.t and reschedule it"
                    name (hot_chain t e.Ix.e_def)))
          else None
      | Ix.Source _ -> None
      | Ix.Ref_op _ -> None (* consumed by Lint_domain_rules *)
      | Ix.Blocking _ -> None (* consumed by Lint_ownership_rules *))
    (Ix.events t.ix)

(* ---- dead-export ---- *)

let dead_export_findings t =
  List.filter_map
    (fun (x : Ix.export) ->
      if not (in_lib x.Ix.x_file) then None
      else if Ix.functor_used_unit t.ix x.Ix.x_unit then None
      else
        let refs = Ix.referencing_units t.ix x.Ix.x_id in
        let external_ref = List.exists (fun u -> u <> x.Ix.x_unit) refs in
        if external_ref then None
        else
          Some
            (F.v ~symbol:x.Ix.x_id ~rule:"dead-export" ~severity:F.Error
               ~file:x.Ix.x_file ~line:x.Ix.x_line ~col:0
               (Printf.sprintf
                  "%s is exported by its .mli but never referenced outside \
                   its module; delete the export or baseline it with a \
                   justification"
                  x.Ix.x_id)))
    (Ix.exports t.ix)

let findings ?(dead_export = true) t =
  event_findings t
  @ (if dead_export then dead_export_findings t else [])
  @ Lint_taint.report t.ix

(* ---- baseline ---- *)

(* Format: one entry per line, [<rule> <symbol> -- justification];
   blank lines and [#] comments ignored. Matching is on (rule, symbol)
   so entries survive line-number churn. *)

let find_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then None else go 0

let parse_baseline_line ln line =
  let line =
    match String.index_opt (String.trim line) '#' with
    | Some 0 -> ""
    | _ -> line
  in
  if String.trim line = "" then Ok None
  else
    let malformed () =
      Error
        (Printf.sprintf "line %d: expected '<rule> <symbol> -- justification'"
           ln)
    in
    match find_sub line " -- " with
    | None -> malformed ()
    | Some i ->
        let body = String.trim (String.sub line 0 i) in
        let just =
          String.trim
            (String.sub line (i + 4) (String.length line - i - 4))
        in
        if just = "" then malformed ()
        else (
          match String.index_opt body ' ' with
          | Some j ->
              let rule = String.sub body 0 j in
              let symbol =
                String.trim
                  (String.sub body (j + 1) (String.length body - j - 1))
              in
              if rule = "" || symbol = "" then malformed ()
              else Ok (Some (rule, symbol))
          | None -> malformed ())

let load_baseline path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go ln acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | line -> (
                match parse_baseline_line ln line with
                | Ok None -> go (ln + 1) acc
                | Ok (Some entry) -> go (ln + 1) (entry :: acc)
                | Error e -> Error (path ^ ": " ^ e))
          in
          go 1 [])

let apply_baseline entries findings =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (r, s) -> Hashtbl.replace tbl (r, s) ()) entries;
  List.partition
    (fun (f : F.t) ->
      f.F.symbol = "" || not (Hashtbl.mem tbl (f.F.rule, f.F.symbol)))
    findings
