(* A two-level hierarchical timer wheel over integer ids, with min-heap
   tiers.

   Every scheduled thing is an int id. Per-id parallel arrays hold its
   key, sequence number, tier, position and chain links, so no queue
   operation stores a pointer: in OCaml 5 every pointer store into the
   major heap pays the write barrier, and queue entries are long-lived.

   The wheel serves the short horizon with O(1) insert and cancel; far
   future ids overflow into a heap and migrate inward as the cursor
   advances. Every schedule takes a strictly increasing sequence number
   (shared across all tiers). Ids whose tick is current sit in the
   [due] heap, ordered by (key, seq): a slot's ids move there when its
   tick becomes current, and schedules at or before the cursor's tick
   push straight onto it. The global pop order is therefore exactly a
   binary heap's: ascending key, FIFO among equal keys. The engine
   relies on that bit-identical ordering for determinism.

   Layout (default config): ticks are [1 lsl granularity_bits] ns wide.
   Level 0 spans [1 lsl l0_bits] ticks starting at the cursor; it never
   crosses a level-1 boundary, so each L0 slot holds exactly one tick.
   Level 1 spans [1 lsl l1_bits] L0-spans; each L1 slot holds one L0
   span and cascades into level 0 when the cursor reaches it. Anything
   beyond the L1 window goes to the overflow heap. A slot is an
   intrusive doubly-linked chain through [next]/[prev]; its order does
   not matter, since every slot ends in the (key, seq)-ordered [due]
   heap.

   Invariant (engine contract): keys are never below the last popped
   key, so the cursor only moves forward. Ids at or below the cursor's
   tick land in the [due] heap and pop before any slot.

   Cancellation is eager: an id is unlinked from its slot in O(1) or
   removed from its heap in O(log n), so every resident id is
   pending. *)

type config = { granularity_bits : int; l0_bits : int; l1_bits : int }

(* 1.024us ticks, ~4.2ms L0 horizon, ~17.2s L1 horizon. *)
let default_config = { granularity_bits = 10; l0_bits = 12; l1_bits = 12 }

(* Wheel disabled: every id lives in the overflow heap. This is the
   pre-wheel scheduler, kept as the equivalence/bench baseline. *)
let heap_only = { granularity_bits = 0; l0_bits = 0; l1_bits = 0 }

(* Where an id is. Constant constructors only, so a [tier array] is an
   array of immediates and stores into it skip the write barrier. *)
type tier = Free | Idle | Due | Over | L0 | L1

(* ---- occupancy bitmaps (62 usable bits per word) ---- *)

let bits_per_word = 62

let ntz x =
  let x = ref (x land -x) and n = ref 0 in
  if !x land 0x7FFFFFFF = 0 then begin
    n := !n + 31;
    x := !x lsr 31
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let bits_create n = Array.make ((n + bits_per_word - 1) / bits_per_word) 0

let bits_set b i =
  let w = i / bits_per_word in
  b.(w) <- b.(w) lor (1 lsl (i mod bits_per_word))

let bits_clear b i =
  let w = i / bits_per_word in
  b.(w) <- b.(w) land lnot (1 lsl (i mod bits_per_word))

let rec bits_scan b ~limit w word =
  if word <> 0 then begin
    let i = (w * bits_per_word) + ntz word in
    if i < limit then i else -1
  end
  else
    let w = w + 1 in
    if w * bits_per_word >= limit then -1 else bits_scan b ~limit w b.(w)

(* Lowest set index in [from, limit), or -1. *)
let bits_next b ~from ~limit =
  if from >= limit then -1
  else begin
    let w0 = from / bits_per_word in
    bits_scan b ~limit w0 (b.(w0) land (-1 lsl (from mod bits_per_word)))
  end

(* ---- the wheel ---- *)

(* An indexed binary min-heap of ids by (key, seq): [ids.(0 .. n-1)],
   with each resident id's index kept in [pos]. *)
type heap = { mutable ids : int array; mutable n : int }

type t = {
  g_bits : int;
  l0_bits : int;
  w0 : int; (* L0 slot count; 0 = wheel disabled (heap-only) *)
  w1 : int;
  mask0 : int;
  mask1 : int;
  heads0 : int array; (* first id of each L0 slot's chain, or -1 *)
  heads1 : int array;
  occ0 : int array;
  occ1 : int array;
  due : heap; (* ticks <= base0, plus the empty-wheel singleton *)
  over : heap;
  (* per-id state, indexed by id *)
  mutable key : int array;
  mutable seq : int array;
  mutable tier : tier array;
  mutable pos : int array; (* heap index, or slot index *)
  mutable next : int array; (* slot chain, or free list *)
  mutable prev : int array; (* slot chain *)
  mutable n_ids : int;
  mutable free : int; (* free-list head, or -1 *)
  mutable base0 : int; (* cursor, in L0 ticks *)
  mutable base1 : int; (* cursor, in L1 ticks; always base0 lsr l0_bits *)
  mutable next_seq : int;
  mutable live : int;
  mutable n_total_cancelled : int;
}

(* Room for a small testbed's timers (a k=4 fat tree holds about 300)
   without growing: past 256 ids every growth allocates in the major
   heap, which set-up would otherwise pay for. *)
let initial_ids = 512

let create ?(config = default_config) () =
  if config.granularity_bits < 0 || config.granularity_bits > 30 then
    invalid_arg "Timer_wheel.create: granularity_bits out of range";
  if config.l0_bits < 0 || config.l0_bits > 20 then
    invalid_arg "Timer_wheel.create: l0_bits out of range";
  if config.l1_bits < 0 || config.l1_bits > 20 then
    invalid_arg "Timer_wheel.create: l1_bits out of range";
  if config.l0_bits > 0 && config.l1_bits = 0 then
    invalid_arg "Timer_wheel.create: l1_bits must be positive with a wheel";
  let w0 = if config.l0_bits = 0 then 0 else 1 lsl config.l0_bits in
  let w1 = if w0 = 0 then 0 else 1 lsl config.l1_bits in
  {
    g_bits = config.granularity_bits;
    l0_bits = config.l0_bits;
    w0;
    w1;
    mask0 = w0 - 1;
    mask1 = w1 - 1;
    heads0 = Array.make (max 1 w0) (-1);
    heads1 = Array.make (max 1 w1) (-1);
    occ0 = bits_create (max 1 w0);
    occ1 = bits_create (max 1 w1);
    due = { ids = [||]; n = 0 };
    over = { ids = [||]; n = 0 };
    key = Array.make initial_ids 0;
    seq = Array.make initial_ids 0;
    tier = Array.make initial_ids Free;
    pos = Array.make initial_ids 0;
    next = Array.make initial_ids (-1);
    prev = Array.make initial_ids (-1);
    n_ids = 0;
    free = -1;
    base0 = 0;
    base1 = 0;
    next_seq = 0;
    live = 0;
    n_total_cancelled = 0;
  }

let length t = t.live
let is_empty t = t.live = 0
let total_cancelled t = t.n_total_cancelled
let ids t = t.n_ids

let is_pending t id =
  match t.tier.(id) with Due | Over | L0 | L1 -> true | Free | Idle -> false

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
  | Free | Due | Over | L0 | L1 ->
      invalid_arg "Timer_wheel.release: id is not idle"

(* ---- the heap tiers ----

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

let heap_reserve h =
  if h.n = Array.length h.ids then h.ids <- extend h.ids (max 16 (2 * h.n)) (-1)

let heap_push t h tier id =
  heap_reserve h;
  t.tier.(id) <- tier;
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

(* ---- the wheel slots ---- *)

let slot_push t heads occ tier s id =
  let first = heads.(s) in
  t.next.(id) <- first;
  t.prev.(id) <- -1;
  if first >= 0 then t.prev.(first) <- id else bits_set occ s;
  heads.(s) <- id;
  t.tier.(id) <- tier;
  t.pos.(id) <- s

let slot_unlink t heads occ id =
  let s = t.pos.(id) and p = t.prev.(id) and n = t.next.(id) in
  if n >= 0 then t.prev.(n) <- p;
  if p >= 0 then t.next.(p) <- n
  else begin
    heads.(s) <- n;
    if n < 0 then bits_clear occ s
  end

(* Place an id in the tier its tick belongs to. L0 only holds ticks
   inside the cursor's current L1 span, so an L0 slot never aliases two
   different ticks. *)
let route t id =
  if t.w0 = 0 then heap_push t t.over Over id
  else begin
    let tick = t.key.(id) asr t.g_bits in
    if tick <= t.base0 then heap_push t t.due Due id
    else begin
      let l1 = tick asr t.l0_bits in
      if l1 = t.base1 then
        slot_push t t.heads0 t.occ0 L0 (tick land t.mask0) id
      else if l1 - t.base1 < t.w1 then
        slot_push t t.heads1 t.occ1 L1 (l1 land t.mask1) id
      else heap_push t t.over Over id
    end
  end

(* Place an id whose key and seq were just assigned. *)
let insert t id =
  t.live <- t.live + 1;
  if t.w0 > 0 && t.live = 1 then
    (* Empty wheel: the sole pending id parks directly in [due]
       (possibly ahead of the cursor — the one place that is allowed),
       skipping the slot insert on schedule and the bitmap scan on pop.
       This is the transient schedule/pop rhythm the engine settles
       into between bursts, where the wheel was 3x slower than the bare
       heap (BENCH_4). The cursor does not move, so ordering state is
       untouched. *)
    heap_push t t.due Due id
  else begin
    (* A parked ahead-of-cursor singleton only stays in [due] while it
       is alone; route it back through the tiers before adding a second
       id, restoring the [due]-holds-only-reached-ticks invariant that
       pop ordering relies on. *)
    if t.w0 > 0 && t.due.n = 1 then begin
      let id0 = t.due.ids.(0) in
      if t.key.(id0) asr t.g_bits > t.base0 then begin
        t.due.n <- 0;
        route t id0
      end
    end;
    route t id
  end

(* Take a pending id out of its tier; it becomes idle. *)
let unlink t id =
  (match t.tier.(id) with
  | Due -> heap_remove t t.due t.pos.(id)
  | Over -> heap_remove t t.over t.pos.(id)
  | L0 -> slot_unlink t t.heads0 t.occ0 id
  | L1 -> slot_unlink t t.heads1 t.occ1 id
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
  | Due | Over | L0 | L1 -> ignore (cancel t id : bool)
  | Idle -> ()
  | Free -> invalid_arg "Timer_wheel.schedule: id is released");
  t.key.(id) <- key;
  t.seq.(id) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  insert t id

(* ---- advancing the cursor ---- *)

(* Pull overflow ids that now fall inside the L1 window. *)
let rec migrate_overflow t =
  if t.over.n > 0 then begin
    let id = t.over.ids.(0) in
    if (t.key.(id) asr t.g_bits) asr t.l0_bits < t.base1 + t.w1 then begin
      heap_remove t t.over 0;
      route t id;
      migrate_overflow t
    end
  end

(* Append a slot's chain to [due] without restoring heap order. *)
let rec append_due t id =
  if id >= 0 then begin
    let next = t.next.(id) in
    let h = t.due in
    heap_reserve h;
    t.tier.(id) <- Due;
    place t h.ids h.n id;
    h.n <- h.n + 1;
    append_due t next
  end

let rec route_chain t id =
  if id >= 0 then begin
    let next = t.next.(id) in
    route t id;
    route_chain t next
  end

(* Only called with [due] empty, so the slot's ids become the whole
   heap, ordered by a bottom-up O(n) heapify. *)
let drain_slot0 t ~s ~tick =
  t.base0 <- tick;
  let first = t.heads0.(s) in
  t.heads0.(s) <- -1;
  bits_clear t.occ0 s;
  append_due t first;
  let h = t.due in
  for i = (h.n / 2) - 1 downto 0 do
    sift_down t h.ids h.n i h.ids.(i)
  done

let cascade_l1 t ~s ~l1_tick =
  t.base1 <- l1_tick;
  t.base0 <- l1_tick lsl t.l0_bits;
  let first = t.heads1.(s) in
  t.heads1.(s) <- -1;
  bits_clear t.occ1 s;
  migrate_overflow t;
  route_chain t first

(* With [due] empty, advance the cursor until it is not. Returns false
   when nothing is pending. *)
let rec refill_due t =
  t.live > 0
  && begin
          let r0 = t.base0 land t.mask0 in
          let s = bits_next t.occ0 ~from:(r0 + 1) ~limit:t.w0 in
          if s >= 0 then begin
            drain_slot0 t ~s ~tick:((t.base1 lsl t.l0_bits) lor s);
            true
          end
          else begin
            (* L0 exhausted: the next id is in the earliest occupied L1
               slot, which always precedes anything in overflow. *)
            let r1 = t.base1 land t.mask1 in
            let s1 =
              match bits_next t.occ1 ~from:(r1 + 1) ~limit:t.w1 with
              | -1 -> bits_next t.occ1 ~from:0 ~limit:r1
              | s1 -> s1
            in
            if s1 >= 0 then begin
              let delta = (s1 - r1 + t.w1) land t.mask1 in
              cascade_l1 t ~s:s1 ~l1_tick:(t.base1 + delta);
              t.due.n > 0 || refill_due t
            end
            else
              t.over.n > 0
              && begin
                   (* Jump the window to the overflow head. *)
                   let k = t.key.(t.over.ids.(0)) in
                   let l1 = (k asr t.g_bits) asr t.l0_bits in
                   t.base1 <- l1;
                   t.base0 <- l1 lsl t.l0_bits;
                   migrate_overflow t;
                   t.due.n > 0 || refill_due t
                 end
          end
        end

let[@inline] ensure_due t = t.due.n > 0 || refill_due t

let pop_root t h =
  let id = h.ids.(0) in
  heap_remove t h 0;
  t.tier.(id) <- Idle;
  t.live <- t.live - 1;
  id

let empty () = invalid_arg "Timer_wheel.take: no pending entry"

let take t =
  if t.w0 = 0 then if t.over.n = 0 then empty () else pop_root t t.over
  else if ensure_due t then pop_root t t.due
  else empty ()

let next_key t =
  if t.w0 = 0 then if t.over.n = 0 then max_int else t.key.(t.over.ids.(0))
  else if ensure_due t then t.key.(t.due.ids.(0))
  else max_int
