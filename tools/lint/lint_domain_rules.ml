(* The domain-safety / shard-confinement tier.

   Input: the classified toplevel bindings of every lib/ unit
   ([Lint_cmt_index.bindings]) plus the hot closure the deep tier
   already computes. Each piece of module-level state lands in a
   four-point lattice:

     immutable < atomic < engine-scoped < shared-mutable

   - immutable: the binding's type is transitively immutable and its
     module-init expression allocates no mutable cell;
   - atomic: the only mutability is behind Stdlib.Atomic (directly, or
     captured by a closure at module init);
   - engine-scoped: a function whose result type carries mutable
     structure but whose module-init captures nothing mutable — the
     constructor/accessor discipline: fresh state per call, confined to
     whoever holds the handle;
   - shared-mutable: a plain mutable global (ref/Hashtbl/mutable
     record), or a closure that captured one at module init.

   Three rules fire on the shared-mutable class; the other classes
   raise nothing. Like the dead-export rule, findings carry a stable
   symbol so the committed baseline survives line churn. *)

module Ix = Lint_cmt_index
module Deep = Lint_deep_rules
module F = Lint_finding
module SS = Set.Make (String)

type cls = Immutable | Atomic | Engine_scoped | Shared_mutable

let class_label = function
  | Immutable -> "immutable"
  | Atomic -> "atomic"
  | Engine_scoped -> "engine-scoped"
  | Shared_mutable -> "shared-mutable"

let classify (b : Ix.binding) =
  if b.Ix.b_arrow then
    match b.Ix.b_alloc with
    | Ix.Mut_yes -> Some Shared_mutable (* closure captured a mutable cell *)
    | Ix.Mut_atomic -> Some Atomic (* captured only Atomic state *)
    | Ix.Mut_none -> (
        match b.Ix.b_type_mut with
        | Ix.Mut_none -> None (* a plain function — not state *)
        | Ix.Mut_atomic | Ix.Mut_yes -> Some Engine_scoped)
  else
    match Ix.mut_join b.Ix.b_type_mut b.Ix.b_alloc with
    | Ix.Mut_yes -> Some Shared_mutable
    | Ix.Mut_atomic -> Some Atomic
    | Ix.Mut_none -> Some Immutable

type entry = {
  e_id : string;
  e_file : string;
  e_line : int;
  e_class : cls;
  e_type : string;
  e_hot : bool;
}

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let in_lib (b : Ix.binding) = has_prefix "lib/" b.Ix.b_file

(* ---- Shard roots ----

   Under the sharded engine every closure handed to Domain.spawn is a
   per-shard entry point: the spawned body runs concurrently with the
   other shard domains, so anything it reaches is exactly as exposed as
   the per-packet path. The domain tier therefore seeds its
   reachability closure with the deep tier's hot roots PLUS every def
   that calls Domain.spawn. *)

let spawn_callers ix =
  let acc = ref [] in
  Ix.iter_edges ix (fun caller succs ->
      if SS.exists (Ix.suffix_matches ~pattern:"Domain.spawn") succs then
        acc := caller :: !acc);
  List.sort_uniq String.compare !acc

let shard_closure dr =
  let ix = Deep.index dr in
  Lint_callgraph.forward ix ~roots:(Deep.roots dr @ spawn_callers ix)

let inventory ?closure dr =
  let ix = Deep.index dr in
  let hot = match closure with Some c -> c | None -> shard_closure dr in
  Ix.bindings ix
  |> List.filter in_lib
  |> List.filter_map (fun (b : Ix.binding) ->
         match classify b with
         | None -> None
         | Some c ->
             Some
               {
                 e_id = b.Ix.b_id;
                 e_file = b.Ix.b_file;
                 e_line = b.Ix.b_line;
                 e_class = c;
                 e_type = b.Ix.b_rendered;
                 e_hot = Lint_callgraph.mem hot b.Ix.b_id;
               })

(* ---- The three rules ---- *)

let mk ~rule ~cls (e : entry) msg =
  F.v ~rule ~severity:F.Error ~file:e.e_file ~line:e.e_line ~col:0
    ~symbol:e.e_id ~classification:(class_label cls) msg

let shared_global_findings shared =
  List.map
    (fun e ->
      mk ~rule:"shared-mutable-global" ~cls:Shared_mutable e
        (Printf.sprintf
           "module-level mutable state `%s` (%s) is writable by every \
            domain; confine it to an engine/handle, wrap it in Atomic, or \
            baseline it with a justification"
           e.e_id e.e_type))
    shared

let unsafe_reach_findings hot shared =
  List.filter_map
    (fun e ->
      if not e.e_hot then None
      else
        Some
          (mk ~rule:"shard-unsafe-reach" ~cls:Shared_mutable e
             (Printf.sprintf
                "shared-mutable `%s` is reachable from a per-packet/per-event \
                 hot root or a Domain.spawn shard body (%s); this path runs \
                 on every shard once the engine is sharded across domains"
                e.e_id
                (Lint_callgraph.chain_string hot e.e_id))))
    shared

let nonatomic_findings dr shared =
  let shared_ids =
    List.fold_left (fun s e -> SS.add e.e_id s) SS.empty shared
  in
  let by_id =
    List.fold_left (fun m e -> (e.e_id, e) :: m) [] shared
  in
  (* join the ref-op events per (enclosing def, target binding): a
     read-modify-write is an explicit incr/decr, or a read AND a write
     of the same target inside the same def *)
  let groups : (string * string, Ix.ref_op list * Ix.event) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (ev : Ix.event) ->
      match ev.Ix.e_kind with
      | Ix.Ref_op { op; target } when SS.mem target shared_ids ->
          let key = (ev.Ix.e_def, target) in
          let ops =
            match Hashtbl.find_opt groups key with
            | Some (ops, _) -> ops
            | None -> []
          in
          (* the event list is newest-first, so the last replace leaves
             the earliest occurrence as the witness location *)
          Hashtbl.replace groups key (op :: ops, ev)
      | _ -> ())
    (Ix.events (Deep.index dr));
  Hashtbl.fold
    (fun (def, target) (ops, witness) acc ->
      let rmw = List.mem Ix.Rrmw ops in
      let rw = List.mem Ix.Rread ops && List.mem Ix.Rwrite ops in
      if not (rmw || rw) then acc
      else
        let entry = List.assoc target by_id in
        F.v ~rule:"nonatomic-counter" ~severity:F.Error
          ~file:witness.Ix.e_file ~line:witness.Ix.e_line
          ~col:witness.Ix.e_col ~symbol:target
          ~classification:(class_label Shared_mutable)
          (Printf.sprintf
             "read-modify-write on shared-mutable `%s` (%s) in `%s`; a \
              concurrent shard can interleave between the read and the \
              write — use Atomic.fetch_and_add or a compare_and_set loop"
             target entry.e_type def)
        :: acc)
    groups []

let findings dr =
  let hot = shard_closure dr in
  let shared =
    List.filter
      (fun e -> e.e_class = Shared_mutable)
      (inventory ~closure:hot dr)
  in
  shared_global_findings shared
  @ unsafe_reach_findings hot shared
  @ nonatomic_findings dr shared
  |> List.sort F.compare_by_location
