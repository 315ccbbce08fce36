(* A growable ring of (int key, value) pairs in two parallel arrays.
   [head] indexes the oldest entry; the ring doubles when full,
   unwrapping into the new arrays so order is kept. Popped value cells
   are overwritten with the sentinel, so the queue never keeps a
   dequeued value reachable. *)

type 'a t = {
  mutable keys : int array;
  mutable values : 'a array;
  mutable head : int;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy () = { keys = [||]; values = [||]; head = 0; size = 0; dummy }
let length q = q.size
let is_empty q = q.size = 0

let grow q =
  let cap = Array.length q.keys in
  let cap' = max 8 (2 * cap) in
  let keys = Array.make cap' 0 in
  let values = Array.make cap' q.dummy in
  let first = min q.size (cap - q.head) in
  Array.blit q.keys q.head keys 0 first;
  Array.blit q.values q.head values 0 first;
  Array.blit q.keys 0 keys first (q.size - first);
  Array.blit q.values 0 values first (q.size - first);
  q.keys <- keys;
  q.values <- values;
  q.head <- 0

let push q ~key v =
  if q.size = Array.length q.keys then grow q;
  let i = q.head + q.size in
  let i = if i >= Array.length q.keys then i - Array.length q.keys else i in
  q.keys.(i) <- key;
  q.values.(i) <- v;
  q.size <- q.size + 1

let peek_key q = if q.size = 0 then max_int else q.keys.(q.head)

let pop q =
  if q.size = 0 then invalid_arg "Fifo.pop: empty queue";
  let i = q.head in
  let v = q.values.(i) in
  q.values.(i) <- q.dummy;
  let next = i + 1 in
  q.head <- (if next = Array.length q.keys then 0 else next);
  q.size <- q.size - 1;
  v
