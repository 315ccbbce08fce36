(* Determinism taint: the one determinism rule. Wall-clock reads,
   ambient randomness and hash-order iteration are judged by where
   their values flow, not by where they are called.

   A def is a taint SOURCE if its body reads the wall clock
   (Unix.gettimeofday, Sys.time, the Mtime module), ambient randomness (the
   global Random state), or iterates a Hashtbl in (unsorted) bucket
   order. Taint propagates to every transitive caller — a nondeterministic
   value returned from a helper contaminates whoever calls it.

   We only REPORT when a tainted def directly touches sim-visible state:
   journal / time-series payloads, engine event scheduling, or a
   routing/TE decision. A wall-clock read feeding an operator-facing log
   line is noise; one feeding Journal.record breaks bit-reproducibility
   of the fig12/fig15 timelines, which is the invariant Planck's
   evaluation rests on. Sources in lib/telemetry's wall-clock-facing
   modules (metrics/trace export real time by design) are exempt; the
   journal and timeseries modules themselves are not. *)

module SS = Set.Make (String)
module F = Lint_finding
module Ix = Lint_cmt_index

let default_sinks =
  [
    "Journal.record";
    "Timeseries.sample";
    "Timeseries.add_series";
    "Engine.schedule";
    "Engine.schedule_at";
    "Engine.every";
    "Engine.periodic";
    "Engine.Timer.create";
    "Engine.Timer.reschedule";
    "Engine.Timer.reschedule_at";
    "Timer_wheel.schedule";
    "Reroute.apply";
    "Net_view.set_route";
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Real-time telemetry (metrics, trace, reporter, flusher, export) may
   read the clock; the sim-visible stores (journal, timeseries,
   inspect, json) may not. *)
let default_exempt_source file =
  starts_with ~prefix:"lib/telemetry/" file
  && not
       (List.mem (Filename.basename file)
          [ "journal.ml"; "timeseries.ml"; "inspect.ml"; "json.ml" ])

type config = {
  sink_patterns : string list;
  exempt_source : string -> bool;  (** file-level source exemption *)
}

let default_config =
  { sink_patterns = default_sinks; exempt_source = default_exempt_source }

let source_label = function
  | Ix.Wall_clock -> "wall-clock"
  | Ix.Ambient_random -> "ambient-randomness"
  | Ix.Hashtbl_iter -> "hashtbl-iteration-order"

(* source events eligible for taint: in lib/, outside exempt files,
   not on a raise path (error messages may cite real time) *)
let source_events ?(config = default_config) ix =
  List.filter
    (fun (e : Ix.event) ->
      match e.Ix.e_kind with
      | Ix.Source (_, _) ->
          (not e.Ix.e_in_raise)
          && starts_with ~prefix:"lib/" e.Ix.e_file
          && not (config.exempt_source e.Ix.e_file)
      | _ -> false)
    (Ix.events ix)

let report ?(config = default_config) ix =
  let sources = source_events ~config ix in
  if sources = [] then []
  else begin
    let src_by_def = Hashtbl.create 64 in
    List.iter
      (fun (e : Ix.event) ->
        if not (Hashtbl.mem src_by_def e.Ix.e_def) then
          Hashtbl.add src_by_def e.Ix.e_def e)
      sources;
    let roots = Hashtbl.fold (fun d _ acc -> d :: acc) src_by_def [] in
    let tainted = Lint_callgraph.backward ix ~roots in
    (* a finding per tainted def that directly references a sink *)
    let findings = ref [] in
    Ix.iter_edges ix (fun def targets ->
        if Lint_callgraph.mem tainted def then
          match
            SS.fold
              (fun tgt acc ->
                match acc with
                | Some _ -> acc
                | None ->
                    if Ix.any_suffix_matches config.sink_patterns tgt then
                      Some tgt
                    else None)
              targets None
          with
          | None -> ()
          | Some sink ->
              (* walk the witness chain back to the source event *)
              let chain = Lint_callgraph.chain tainted def in
              let src_def =
                match chain with d :: _ -> d | [] -> def
              in
              let src =
                match Hashtbl.find_opt src_by_def src_def with
                | Some e -> e
                | None -> List.hd sources
              in
              let kind, origin =
                match src.Ix.e_kind with
                | Ix.Source (k, name) -> (source_label k, name)
                | _ -> ("nondeterminism", "?")
              in
              let via =
                match chain with
                | [] | [ _ ] -> ""
                | l -> Printf.sprintf " via %s" (String.concat " -> " l)
              in
              findings :=
                F.v ~symbol:def ~rule:"determinism-taint" ~severity:F.Error
                  ~file:src.Ix.e_file ~line:src.Ix.e_line ~col:src.Ix.e_col
                  (Printf.sprintf
                     "%s source %s reaches sim-visible state: %s calls %s%s; \
                      sim state must derive from Engine.now / seeded Prng"
                     kind origin def sink via)
                :: !findings)
      ;
    !findings
  end
