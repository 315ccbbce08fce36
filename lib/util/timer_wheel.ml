(* An exact-time event queue over integer ids: a ring of one-nanosecond
   slots for the near future, and an indexed min-heap for the rest.

   Every scheduled thing is an int id. Per-id parallel arrays hold its
   key, sequence number, tier, heap position and chain links, so no
   queue operation stores a pointer: in OCaml 5 every pointer store into
   the major heap pays the write barrier, and queue entries are
   long-lived.

   The ring has [w] slots, one per nanosecond of [base, base + w), where
   [base] is the key last taken. Slot [key land mask] holds ids of that
   one key only, as an intrusive FIFO chain (doubly linked through
   [next]/[prev], so a cancel unlinks in O(1)), and an occupancy bitmap
   finds the next non-empty slot. An id scheduled at or past
   [base + w] goes to the far tier, an indexed binary heap of ids by
   (key, seq), and stays there until it is taken or cancelled.

   Pop order is exactly a binary heap's: ascending key, FIFO among
   equal keys. Every schedule takes a fresh, strictly increasing seq,
   and a schedule into the ring appends it to its slot, so each slot's
   chain is in seq order and its head is the ring's least (key, seq)
   at that key. The next id is the lesser by (key, seq) of the ring's
   first and the heap's root: a far id whose key the window has since
   reached pops straight from the heap, never moving into the ring, so
   a timer scheduled microseconds ahead costs one heap push and one
   heap pop.

   [base] moves only on take, to the taken key: a bounded take that
   finds nothing due changes no state, and a later schedule below the
   next key still lands in order. Ring keys stay inside
   [base, base + w), so a slot never mixes keys. Keys below [base] are
   refused. *)

let w = 4096
let mask = w - 1

(* Where an id is. Constant constructors only, so a [tier array] is an
   array of immediates and stores into it skip the write barrier. *)
type tier = Free | Idle | Ring | Far

(* ---- occupancy bitmap (62 usable bits per word) ---- *)

let bits_per_word = 62

(* Index of the lowest set bit: the exponent of that bit alone as a
   float, which the conversion computes exactly and without a branch. *)
let[@inline] ntz x =
  (Int64.to_int (Int64.bits_of_float (Int.to_float (x land -x))) lsr 52)
  - 1023

let bits_set b i =
  let w = i / bits_per_word in
  b.(w) <- b.(w) lor (1 lsl (i mod bits_per_word))

let bits_clear b i =
  let w = i / bits_per_word in
  b.(w) <- b.(w) land lnot (1 lsl (i mod bits_per_word))

(* Lowest set index at or after word [w]'s first bit, or -1. *)
let rec bits_scan b w =
  if w >= Array.length b then -1
  else
    let x = b.(w) in
    if x <> 0 then (w * bits_per_word) + ntz x else bits_scan b (w + 1)

(* Lowest set index at or after [i], or -1. *)
let bits_next b i =
  let w = i / bits_per_word in
  let x = b.(w) land (-1 lsl (i mod bits_per_word)) in
  if x <> 0 then (w * bits_per_word) + ntz x else bits_scan b (w + 1)

(* ---- the queue ---- *)

(* An indexed binary min-heap of ids by (key, seq): [ids.(0 .. n-1)],
   with each resident id's index kept in [pos]. *)
type heap = { mutable ids : int array; mutable n : int }

type t = {
  heads : int array; (* first id of each slot's chain, or -1 *)
  tails : int array; (* last id of each slot's chain, or -1 *)
  occ : int array;
  far : heap;
  (* per-id state, indexed by id *)
  mutable key : int array;
  mutable seq : int array;
  mutable tier : tier array;
  mutable pos : int array; (* heap index *)
  mutable next : int array; (* slot chain, or free list *)
  mutable prev : int array; (* slot chain *)
  mutable n_ids : int;
  mutable free : int; (* free-list head, or -1 *)
  mutable base : int; (* the key last taken *)
  mutable next_seq : int;
  mutable live : int;
  mutable n_total_cancelled : int;
}

(* Room for a small testbed's timers (a k=4 fat tree holds about 300)
   without growing: past 256 ids every growth allocates in the major
   heap, which set-up would otherwise pay for. *)
let initial_ids = 512

let create () =
  {
    heads = Array.make w (-1);
    tails = Array.make w (-1);
    occ = Array.make ((w + bits_per_word - 1) / bits_per_word) 0;
    far = { ids = [||]; n = 0 };
    key = Array.make initial_ids 0;
    seq = Array.make initial_ids 0;
    tier = Array.make initial_ids Free;
    pos = Array.make initial_ids 0;
    next = Array.make initial_ids (-1);
    prev = Array.make initial_ids (-1);
    n_ids = 0;
    free = -1;
    base = 0;
    next_seq = 0;
    live = 0;
    n_total_cancelled = 0;
  }

let length t = t.live
let total_cancelled t = t.n_total_cancelled
let ids t = t.n_ids
let last_key t = t.base

let is_pending t id =
  match t.tier.(id) with Ring | Far -> true | Free | Idle -> false

(* ---- ids ---- *)

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_ids t =
  let n = 2 * Array.length t.key in
  t.key <- extend t.key n 0;
  t.seq <- extend t.seq n 0;
  t.tier <- extend t.tier n Free;
  t.pos <- extend t.pos n 0;
  t.next <- extend t.next n (-1);
  t.prev <- extend t.prev n (-1)

let alloc t =
  let id =
    if t.free >= 0 then begin
      let id = t.free in
      t.free <- t.next.(id);
      id
    end
    else begin
      if t.n_ids = Array.length t.key then grow_ids t;
      let id = t.n_ids in
      t.n_ids <- id + 1;
      id
    end
  in
  t.tier.(id) <- Idle;
  id

let release t id =
  match t.tier.(id) with
  | Idle ->
      t.tier.(id) <- Free;
      t.next.(id) <- t.free;
      t.free <- id
  | Free | Ring | Far -> invalid_arg "Timer_wheel.release: id is not idle"

(* ---- the far tier ----

   Sifts move a hole rather than swapping, so each moved id is written
   once, along with its new index. *)

let[@inline] before t a b =
  let ka = t.key.(a) and kb = t.key.(b) in
  ka < kb || (ka = kb && t.seq.(a) < t.seq.(b))

let[@inline] place t ids i id =
  ids.(i) <- id;
  t.pos.(id) <- i

let rec sift_up t ids i id =
  if i = 0 then place t ids 0 id
  else begin
    let p = (i - 1) / 2 in
    let q = ids.(p) in
    if before t id q then begin
      place t ids i q;
      sift_up t ids p id
    end
    else place t ids i id
  end

let rec sift_down t ids n i id =
  let l = (2 * i) + 1 in
  if l >= n then place t ids i id
  else begin
    let c = if l + 1 < n && before t ids.(l + 1) ids.(l) then l + 1 else l in
    let q = ids.(c) in
    if before t q id then begin
      place t ids i q;
      sift_down t ids n c id
    end
    else place t ids i id
  end

let heap_push t h id =
  if h.n = Array.length h.ids then h.ids <- extend h.ids (max 16 (2 * h.n)) (-1);
  t.tier.(id) <- Far;
  let i = h.n in
  h.n <- i + 1;
  sift_up t h.ids i id

(* Remove the id at index [i]: the last id fills the hole and moves up
   or down to restore the order. *)
let heap_remove t h i =
  let n = h.n - 1 in
  h.n <- n;
  if i < n then begin
    let last = h.ids.(n) in
    if i > 0 && before t last h.ids.((i - 1) / 2) then sift_up t h.ids i last
    else sift_down t h.ids n i last
  end

(* ---- the ring ---- *)

let ring_append t id =
  let s = t.key.(id) land mask in
  let last = t.tails.(s) in
  t.next.(id) <- -1;
  t.prev.(id) <- last;
  if last >= 0 then t.next.(last) <- id
  else begin
    t.heads.(s) <- id;
    bits_set t.occ s
  end;
  t.tails.(s) <- id;
  t.tier.(id) <- Ring

let ring_unlink t id =
  let s = t.key.(id) land mask and p = t.prev.(id) and n = t.next.(id) in
  if n >= 0 then t.prev.(n) <- p else t.tails.(s) <- p;
  if p >= 0 then t.next.(p) <- n
  else begin
    t.heads.(s) <- n;
    if n < 0 then bits_clear t.occ s
  end

(* The slot of the earliest ring id: the first occupied slot at or
   after [base]'s, wrapping. The ring must not be empty. *)
let first_slot t =
  match bits_next t.occ (t.base land mask) with
  | -1 -> bits_next t.occ 0
  | s -> s

(* ---- operations ---- *)

(* Take a pending id out of its tier; it becomes idle. *)
let unlink t id =
  (match t.tier.(id) with
  | Ring -> ring_unlink t id
  | Far -> heap_remove t t.far t.pos.(id)
  | Free | Idle -> invalid_arg "Timer_wheel: id is not pending");
  t.tier.(id) <- Idle;
  t.live <- t.live - 1

let cancel t id =
  is_pending t id
  && begin
       unlink t id;
       t.n_total_cancelled <- t.n_total_cancelled + 1;
       true
     end

let schedule t id ~key =
  (match t.tier.(id) with
  | Free -> invalid_arg "Timer_wheel.schedule: id is released"
  | _ when key < t.base ->
      invalid_arg "Timer_wheel.schedule: key before the last taken key"
  | Ring | Far -> ignore (cancel t id : bool)
  | Idle -> ());
  t.key.(id) <- key;
  t.seq.(id) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  if key - t.base < w then ring_append t id else heap_push t t.far id

(* The next pending id, or -1: the lesser by (key, seq) of the ring's
   earliest and the far heap's root. *)
let next_id t =
  let h = t.far in
  if t.live > h.n then begin
    let id = t.heads.(first_slot t) in
    if h.n > 0 && before t h.ids.(0) id then h.ids.(0) else id
  end
  else if h.n > 0 then h.ids.(0)
  else -1

let take_until t horizon =
  match next_id t with
  | id when id < 0 || t.key.(id) > horizon -> -1
  | id ->
      unlink t id;
      t.base <- t.key.(id);
      id
