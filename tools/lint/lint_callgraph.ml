(* Reachability over the def/ref graph built by [Lint_cmt_index].

   Two closures are needed by the deep rules:

   - forward, from the per-packet roots: "everything the switch ingress
     path can call" — the hot set;
   - backward, from determinism sources: "everything that (transitively)
     calls a wall-clock read" — the tainted set.

   Both run the same BFS and keep a parent map so every finding can cite
   a witness chain (root -> ... -> offender), which is what makes a
   whole-program finding actionable. *)

module SS = Set.Make (String)
module SM = Map.Make (String)

type closure = {
  reached : SS.t;
  parent : string SM.t;  (* node -> predecessor on a shortest chain *)
  roots : SS.t;
}

let forward ix ~roots =
  let roots = SS.of_list roots in
  let parent = ref SM.empty in
  let reached = ref SS.empty in
  let q = Queue.create () in
  SS.iter
    (fun r ->
      if not (SS.mem r !reached) then begin
        reached := SS.add r !reached;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    SS.iter
      (fun succ ->
        if not (SS.mem succ !reached) then begin
          reached := SS.add succ !reached;
          parent := SM.add succ n !parent;
          Queue.add succ q
        end)
      (Lint_cmt_index.edges_of ix n)
  done;
  { reached = !reached; parent = !parent; roots }

let backward ix ~roots =
  (* invert the edge table once, then reuse the same BFS *)
  let preds : (string, SS.t ref) Hashtbl.t = Hashtbl.create 1024 in
  Lint_cmt_index.iter_edges ix (fun caller succs ->
      SS.iter
        (fun succ ->
          match Hashtbl.find_opt preds succ with
          | Some s -> s := SS.add caller !s
          | None -> Hashtbl.replace preds succ (ref (SS.singleton caller)))
        succs);
  let roots = SS.of_list roots in
  let parent = ref SM.empty in
  let reached = ref SS.empty in
  let q = Queue.create () in
  SS.iter
    (fun r ->
      if not (SS.mem r !reached) then begin
        reached := SS.add r !reached;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    let ps =
      match Hashtbl.find_opt preds n with Some s -> !s | None -> SS.empty
    in
    SS.iter
      (fun p ->
        if not (SS.mem p !reached) then begin
          reached := SS.add p !reached;
          parent := SM.add p n !parent;
          Queue.add p q
        end)
      ps
  done;
  { reached = !reached; parent = !parent; roots }

let mem c id = SS.mem id c.reached

let chain c id =
  if not (SS.mem id c.reached) then []
  else
    let rec up acc n =
      if SS.mem n c.roots then n :: acc
      else
        match SM.find_opt n c.parent with
        | Some p -> up (n :: acc) p
        | None -> n :: acc
    in
    up [] id

let chain_string c id =
  match chain c id with [] -> id | l -> String.concat " -> " l
