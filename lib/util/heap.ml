(* An array-backed binary min-heap of ints kept in three parallel int
   arrays: keys, insertion sequence numbers and values. Each entry's
   seq is strictly increasing, so equal keys pop in insertion order,
   which the simulator relies on for deterministic event ordering.

   Nothing is boxed per entry and no cell holds a pointer: an add
   writes three ints and a removal moves a hole rather than swapping,
   so sifts pay no write barrier and steady-state adds and drops
   allocate nothing. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { keys = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let capacity = max 16 (2 * h.size) in
  let keys = Array.make capacity 0 in
  let seqs = Array.make capacity 0 in
  let values = Array.make capacity 0 in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.values 0 values 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.values <- values

let[@inline] set h i key seq (v : int) =
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.values.(i) <- v

let[@inline] move h ~src ~dst =
  set h dst h.keys.(src) h.seqs.(src) h.values.(src)

let[@inline] before h i key seq =
  let ki = h.keys.(i) in
  ki < key || (ki = key && h.seqs.(i) < seq)

(* Place (key, seq, v) by moving the hole at [i] up past larger parents. *)
let rec sift_up h i key seq v =
  if i = 0 then set h 0 key seq v
  else begin
    let p = (i - 1) / 2 in
    if before h p key seq then set h i key seq v
    else begin
      move h ~src:p ~dst:i;
      sift_up h p key seq v
    end
  end

(* Place (key, seq, v) by moving the hole at [i] down past smaller
   children, within the first [n] cells. *)
let rec sift_down h n i key seq v =
  let l = (2 * i) + 1 in
  if l >= n then set h i key seq v
  else begin
    let c =
      if l + 1 < n && before h (l + 1) h.keys.(l) h.seqs.(l) then l + 1 else l
    in
    if before h c key seq then begin
      move h ~src:c ~dst:i;
      sift_down h n c key seq v
    end
    else set h i key seq v
  end

let add h ~key v =
  if h.size = Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i key seq v

let top_key h = if h.size = 0 then max_int else h.keys.(0)

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty heap";
  h.values.(0)

let drop h =
  if h.size = 0 then invalid_arg "Heap.drop: empty heap";
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then sift_down h n 0 h.keys.(n) h.seqs.(n) h.values.(n)
