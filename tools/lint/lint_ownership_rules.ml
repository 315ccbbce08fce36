(* The ownership / transfer-safety tier.

   Input: the ownership facts the index records (transfer-point call
   sites, SPSC role sites, per-binding use-after-transfer facts,
   release leaks, blocking references) plus the same shard closure the
   domain tier computes. Four rules:

   - use-after-transfer: a local flowed into Spsc.push / Timer.cancel
     and is read/written/RMW'd afterwards on some path. The domain
     tier's mutability classifier filters immutable payloads — reading
     an immutable value the consumer also reads races nothing, which
     is what keeps the shard hand-off of immutable Packet.t clean.

   - spsc-role-confinement: for one channel identity, all push sites
     must be reachable from at most one Domain.spawn shard root, and
     all pop/peek/drain sites likewise. Code no spawn root reaches is
     attributed to the "(main)" pseudo-root. A channel whose both
     roles sit under one single root is clean — that is the
     single-domain setup/test shape; the multi-instance case (N shards
     running one shard-body def) is the dynamic Spsc debug check's
     job, not this rule's.

   - blocking-in-shard-body: a Mutex.lock/Condition.wait/Domain.join/
     Unix-I/O/console reference reachable from a shard closure or hot
     root. A parked domain stalls the sense-reversing barrier for
     every shard, so each such site is either a bug or a documented
     design point (the barrier itself) carrying a baseline entry.

   - release-leak: Buffer_pool.try_alloc succeeded but a direct
     raise-family call escapes the success branch before any release.

   Like the domain tier, findings carry stable symbols for the
   committed baseline, and the whole fact base is rendered into a
   committed inventory (tools/lint/ownership.txt) with a drift
   self-check. *)

module Ix = Lint_cmt_index
module Deep = Lint_deep_rules
module Dom = Lint_domain_rules
module F = Lint_finding
module SS = Set.Make (String)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let in_lib file = has_prefix "lib/" file

(* strip the "Stdlib." prefix for symbols and messages *)
let short_op name =
  if has_prefix "Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

(* ---- Shard-root attribution ----

   Each Domain.spawn caller is a shard root; per-root forward closures
   tell us which root(s) can execute a given def. Defs no spawned body
   reaches run on the coordinating domain: the "(main)" pseudo-root. *)

type attribution = {
  at_roots : (string * Lint_callgraph.closure) list;
}

let main_root = "(main)"

let attribution dr =
  let ix = Deep.index dr in
  let roots = Dom.spawn_callers ix in
  {
    at_roots =
      List.map (fun r -> (r, Lint_callgraph.forward ix ~roots:[ r ])) roots;
  }

let roots_of at def =
  match
    List.filter_map
      (fun (r, c) -> if Lint_callgraph.mem c def then Some r else None)
      at.at_roots
  with
  | [] -> [ main_root ]
  | rs -> rs

(* ---- use-after-transfer ---- *)

let use_after_transfer_findings dr =
  Ix.transfer_uses (Deep.index dr)
  |> List.filter_map (fun (u : Ix.transfer_use) ->
         if not (in_lib u.Ix.u_file) then None
         else if u.Ix.u_mut = Ix.Mut_none then None
         else
           Some
             (F.v ~rule:"use-after-transfer" ~severity:F.Error
                ~file:u.Ix.u_file ~line:u.Ix.u_line ~col:u.Ix.u_col
                ~symbol:(Printf.sprintf "%s.%s" u.Ix.u_def u.Ix.u_var)
                ~classification:u.Ix.u_point
                (Printf.sprintf
                   "`%s` flowed into %s at line %d and is %s here; after the \
                    hand-off the value belongs to the new owner (consumer \
                    shard / pool / wheel), which may be mutating it \
                    concurrently — copy what you need before the transfer, \
                    or baseline with a justification"
                   u.Ix.u_var u.Ix.u_point u.Ix.u_transfer_line
                   (Lint_transfer.use_verb u.Ix.u_kind))))

(* ---- release-leak ---- *)

let release_leak_findings dr =
  Ix.release_leaks (Deep.index dr)
  |> List.filter_map (fun (k : Ix.release_leak) ->
         if not (in_lib k.Ix.k_file) then None
         else
           Some
             (F.v ~rule:"release-leak" ~severity:F.Error ~file:k.Ix.k_file
                ~line:k.Ix.k_line ~col:k.Ix.k_col ~symbol:k.Ix.k_def
                (Printf.sprintf
                   "Buffer_pool.try_alloc succeeded at line %d but %s raises \
                    here before any matching release; the admitted bytes \
                    leak from the pool accounting — release on the exception \
                    edge and re-raise"
                   k.Ix.k_alloc_line (short_op k.Ix.k_raise))))

(* ---- spsc-role-confinement ---- *)

let spsc_findings dr =
  let ix = Deep.index dr in
  let sites =
    List.filter (fun (s : Ix.spsc_site) -> in_lib s.Ix.sp_file)
      (Ix.spsc_sites ix)
  in
  if sites = [] then []
  else
    let at = attribution dr in
    let by_chan : (string, Ix.spsc_site list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (s : Ix.spsc_site) ->
        match Hashtbl.find_opt by_chan s.Ix.sp_chan with
        | Some l -> l := s :: !l
        | None -> Hashtbl.replace by_chan s.Ix.sp_chan (ref [ s ]))
      sites;
    let chans =
      Hashtbl.fold (fun c l acc -> (c, List.rev !l) :: acc) by_chan []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.concat_map
      (fun (chan, sites) ->
        let check role label =
          let role_sites =
            List.filter (fun (s : Ix.spsc_site) -> s.Ix.sp_role = role) sites
          in
          let roots =
            List.fold_left
              (fun acc (s : Ix.spsc_site) ->
                List.fold_left (fun acc r -> SS.add r acc) acc
                  (roots_of at s.Ix.sp_def))
              SS.empty role_sites
          in
          if SS.cardinal roots <= 1 then []
          else
            let witness = List.hd role_sites in
            [
              F.v ~rule:"spsc-role-confinement" ~severity:F.Error
                ~file:witness.Ix.sp_file ~line:witness.Ix.sp_line ~col:0
                ~symbol:(chan ^ ":" ^ label)
                ~classification:label
                (Printf.sprintf
                   "SPSC channel %s has %s call sites reachable from %d \
                    distinct shard roots (%s); the single-%s contract allows \
                    exactly one — route them through one domain or split \
                    the channel"
                   chan
                   (if role = Ix.Producer then "push"
                    else "pop/peek/drain")
                   (SS.cardinal roots)
                   (String.concat ", " (SS.elements roots))
                   label);
            ]
        in
        check Ix.Producer "producer" @ check Ix.Consumer "consumer")
      chans

(* ---- blocking-in-shard-body ---- *)

let blocking_findings dr =
  let closure = Dom.shard_closure dr in
  List.filter_map
    (fun (e : Ix.event) ->
      match e.Ix.e_kind with
      | Ix.Blocking name
        when in_lib e.Ix.e_file
             && (not e.Ix.e_in_raise)
             && Lint_callgraph.mem closure e.Ix.e_def ->
          Some
            (F.v ~rule:"blocking-in-shard-body" ~severity:F.Error
               ~file:e.Ix.e_file ~line:e.Ix.e_line ~col:e.Ix.e_col
               ~symbol:(e.Ix.e_def ^ ":" ^ short_op name)
               ~classification:(short_op name)
               (Printf.sprintf
                  "%s is reachable from a shard body / hot root (%s); a \
                   parked domain stalls the sense-reversing barrier for \
                   every shard — move it off the shard path or baseline \
                   with a justification"
                  (short_op name)
                  (Lint_callgraph.chain_string closure e.Ix.e_def)))
      | _ -> None)
    (Ix.events (Deep.index dr))

let findings dr =
  use_after_transfer_findings dr
  @ release_leak_findings dr
  @ spsc_findings dr
  @ blocking_findings dr
  |> List.sort F.compare_by_location

(* ---- Inventory ----

   One line per ownership fact in lib/, mirroring shared_state.txt:
   the committed tools/lint/ownership.txt is this text rendering, and
   the self-check compares the (kind, symbol) projection so line/chain
   churn does not count as drift. *)

type entry = { o_kind : string; o_symbol : string; o_detail : string }

let inventory dr =
  let ix = Deep.index dr in
  let at = attribution dr in
  let closure = Dom.shard_closure dr in
  let seen = Hashtbl.create 64 in
  let add acc kind symbol detail =
    if Hashtbl.mem seen (kind, symbol) then acc
    else begin
      Hashtbl.replace seen (kind, symbol) ();
      { o_kind = kind; o_symbol = symbol; o_detail = detail } :: acc
    end
  in
  let acc =
    List.fold_left
      (fun acc (s : Ix.transfer_site) ->
        if in_lib s.Ix.s_file then
          add acc "transfer-site"
            (s.Ix.s_def ^ ":" ^ s.Ix.s_point)
            s.Ix.s_file
        else acc)
      [] (Ix.transfer_sites ix)
  in
  let acc =
    List.fold_left
      (fun acc (s : Ix.spsc_site) ->
        if in_lib s.Ix.sp_file then
          add acc
            (match s.Ix.sp_role with
            | Ix.Producer -> "spsc-producer"
            | Ix.Consumer -> "spsc-consumer")
            (s.Ix.sp_chan ^ ":" ^ s.Ix.sp_def)
            (Printf.sprintf "op=%s roots=%s" s.Ix.sp_op
               (String.concat "," (roots_of at s.Ix.sp_def)))
        else acc)
      acc (Ix.spsc_sites ix)
  in
  let acc =
    List.fold_left
      (fun acc (e : Ix.event) ->
        match e.Ix.e_kind with
        | Ix.Blocking name
          when in_lib e.Ix.e_file
               && (not e.Ix.e_in_raise)
               && Lint_callgraph.mem closure e.Ix.e_def ->
            add acc "blocking-reach"
              (e.Ix.e_def ^ ":" ^ short_op name)
              (Lint_callgraph.chain_string closure e.Ix.e_def)
        | _ -> acc)
      acc (Ix.events ix)
  in
  List.sort
    (fun a b ->
      match String.compare a.o_kind b.o_kind with
      | 0 -> String.compare a.o_symbol b.o_symbol
      | c -> c)
    acc

let inventory_text entries =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "# planck-lint ownership inventory (generated: planck_lint \
     --ownership-out)\n\
     # One line per ownership fact in lib/: <kind> <symbol> -- <detail>\n\
     # Kinds: transfer-site (def:point), spsc-producer/spsc-consumer \
     (chan:def),\n\
     # blocking-reach (def:op, with the shard-root witness chain).\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s -- %s\n" e.o_kind e.o_symbol e.o_detail))
    entries;
  Buffer.contents buf

(* same `<head> <symbol> -- ...` line shape as shared_state.txt *)
let load_inventory = Dom.load_inventory
