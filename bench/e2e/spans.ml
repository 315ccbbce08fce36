(* Bench-side spans around each public library call a workload makes.
   They are kept in memory and returned with the pass; the benchmark
   writes them out when it ends (--spans-out). They are also the only
   clock the benchmark reads: setup_s and wall_s are sums of them. *)

type kind = Setup | Input | Run | Group

type span = {
  id : int;
  parent : int option;
  name : string;
  kind : kind;
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable next_id : int;
  mutable open_ : int list;
  mutable closed : span list;
}

let create () = { next_id = 0; open_ = []; closed = [] }
let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let record t ~kind name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> Some p | [] -> None in
  t.open_ <- id :: t.open_;
  let start_ns = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = now_ns () in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; parent; name; kind; start_ns; stop_ns } :: t.closed)
    f

let spans t = List.rev t.closed
let seconds s = float_of_int (s.stop_ns - s.start_ns) /. 1e9

let total_s ~kind spans =
  List.fold_left
    (fun acc s -> if s.kind = kind then acc +. seconds s else acc)
    0. spans

let sum_named name spans =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. seconds s else acc)
    0. spans

let kind_name = function
  | Setup -> "setup"
  | Input -> "input"
  | Run -> "run"
  | Group -> "group"
