(* A two-level hierarchical timer wheel layered over the binary min-heap.

   The wheel serves the short horizon with O(1) insert and cancel; far
   future entries overflow into the heap and migrate inward as the
   cursor advances. Every entry carries a strictly increasing sequence
   number (shared across all tiers). Entries whose tick is current sit
   in the [due] heap, an in-place binary min-heap of handles ordered by
   (key, seq): a slot's live entries move there when its tick becomes
   current, and adds at or before the cursor's tick push straight onto
   it. The global pop order is therefore exactly the heap's: ascending
   key, FIFO among equal keys. The engine relies on that bit-identical
   ordering for determinism.

   Layout (default config): ticks are [1 lsl granularity_bits] ns wide.
   Level 0 spans [1 lsl l0_bits] ticks starting at the cursor; it never
   crosses a level-1 boundary, so each L0 slot holds exactly one tick.
   Level 1 spans [1 lsl l1_bits] L0-spans; each L1 slot holds one L0
   span and cascades into level 0 when the cursor reaches it. Anything
   beyond the L1 window goes to the overflow heap.

   Invariant (engine contract): keys are never below the last popped
   key, so the cursor only moves forward. Entries at or below the
   cursor's tick land in the [due] heap and pop before any slot.

   Cancellation is lazy: handles flip to [Cancelled] in O(1) and are
   dropped when their slot drains. When cancelled residents outnumber
   live ones (past a floor), a compaction sweep reclaims them. *)

type config = { granularity_bits : int; l0_bits : int; l1_bits : int }

(* 1.024us ticks, ~4.2ms L0 horizon, ~17.2s L1 horizon. *)
let default_config = { granularity_bits = 10; l0_bits = 12; l1_bits = 12 }

(* Wheel disabled: every entry lives in the overflow heap. This is the
   pre-wheel scheduler, kept as the equivalence/bench baseline. *)
let heap_only = { granularity_bits = 0; l0_bits = 0; l1_bits = 0 }

type state = Pending | Cancelled | Fired

(* A fired handle sits in no tier, so [rearm] reuses it in place: the
   key and seq are rewritten exactly as [add] would assign them. *)
type 'a handle = {
  mutable h_key : int;
  mutable h_seq : int;
  h_value : 'a;
  mutable h_state : state;
}

let detached v = { h_key = 0; h_seq = 0; h_value = v; h_state = Fired }

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

let bits_iter b ~limit f =
  Array.iteri
    (fun w word ->
      let rec go word =
        if word <> 0 then begin
          let i = (w * bits_per_word) + ntz word in
          if i < limit then f i;
          go (word land (word - 1))
        end
      in
      go word)
    b

(* ---- the wheel ---- *)

type 'a t = {
  g_bits : int;
  l0_bits : int;
  w0 : int; (* L0 slot count; 0 = wheel disabled (heap-only) *)
  w1 : int;
  mask0 : int;
  mask1 : int;
  slots0 : 'a handle list array;
  slots1 : 'a handle list array;
  occ0 : int array;
  occ1 : int array;
  overflow : 'a handle Heap.t;
  sentinel : 'a handle; (* fills empty [due] and overflow cells *)
  mutable due : 'a handle array; (* min-heap by (key, seq); ticks <= base0 *)
  mutable n_due : int; (* [due.(0 .. n_due-1)] is the heap *)
  mutable base0 : int; (* cursor, in L0 ticks *)
  mutable base1 : int; (* cursor, in L1 ticks; always base0 lsr l0_bits *)
  mutable next_seq : int;
  mutable live : int;
  mutable n_cancelled : int; (* cancelled entries still resident *)
  mutable n_total_cancelled : int;
  mutable n_compactions : int;
  on_compaction : unit -> unit;
}

let create ?(config = default_config) ?(on_compaction = fun () -> ()) ~dummy
    () =
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
  let sentinel = detached dummy in
  {
    g_bits = config.granularity_bits;
    l0_bits = config.l0_bits;
    w0;
    w1;
    mask0 = w0 - 1;
    mask1 = w1 - 1;
    slots0 = Array.make (max 1 w0) [];
    slots1 = Array.make (max 1 w1) [];
    occ0 = bits_create (max 1 w0);
    occ1 = bits_create (max 1 w1);
    overflow = Heap.create ~dummy:sentinel ();
    sentinel;
    due = [||];
    n_due = 0;
    base0 = 0;
    base1 = 0;
    next_seq = 0;
    live = 0;
    n_cancelled = 0;
    n_total_cancelled = 0;
    n_compactions = 0;
    on_compaction;
  }

let length t = t.live
let is_empty t = t.live = 0
let cancelled_resident t = t.n_cancelled
let total_cancelled t = t.n_total_cancelled
let compactions t = t.n_compactions
let key h = h.h_key
let seq h = h.h_seq
let is_pending h = match h.h_state with Pending -> true | Cancelled | Fired -> false

let[@inline] handle_before a b =
  a.h_key < b.h_key || (a.h_key = b.h_key && a.h_seq < b.h_seq)

(* ---- the due heap ----

   Sifts move a hole rather than swapping, so a push or a root removal
   writes each cell once and allocates nothing beyond array growth. *)

let rec due_sift_up a i h =
  if i = 0 then a.(0) <- h
  else begin
    let p = (i - 1) / 2 in
    let hp = a.(p) in
    if handle_before h hp then begin
      a.(i) <- hp;
      due_sift_up a p h
    end
    else a.(i) <- h
  end

let rec due_sift_down a n i h =
  let l = (2 * i) + 1 in
  if l >= n then a.(i) <- h
  else begin
    let c = if l + 1 < n && handle_before a.(l + 1) a.(l) then l + 1 else l in
    let hc = a.(c) in
    if handle_before hc h then begin
      a.(i) <- hc;
      due_sift_down a n c h
    end
    else a.(i) <- h
  end

(* Make room for one more entry. *)
let due_reserve t =
  if t.n_due = Array.length t.due then begin
    let a = Array.make (max 16 (2 * t.n_due)) t.sentinel in
    Array.blit t.due 0 a 0 t.n_due;
    t.due <- a
  end

(* Append without restoring heap order: callers heapify. *)
let due_append t h =
  due_reserve t;
  t.due.(t.n_due) <- h;
  t.n_due <- t.n_due + 1

let due_push t h =
  due_reserve t;
  let i = t.n_due in
  t.n_due <- i + 1;
  due_sift_up t.due i h

(* Bottom-up rebuild after bulk appends or in-place filtering: O(n). *)
let due_heapify t =
  for i = (t.n_due / 2) - 1 downto 0 do
    due_sift_down t.due t.n_due i t.due.(i)
  done

(* The last entry fills the hole, so the vacated cell keeps a duplicate
   of a resident handle rather than pinning the removed one (only the
   final removal leaves its handle behind, in cell 0, until the next
   push). Clearing it would cost a write barrier per event: handles of
   re-armed timers live in the major heap, and overwriting a major
   pointer darkens it. *)
let due_drop_root t =
  let n = t.n_due - 1 in
  t.n_due <- n;
  if n > 0 then due_sift_down t.due n 0 t.due.(n)

(* Place a handle in the tier its tick belongs to. L0 only holds ticks
   inside the cursor's current L1 span, so an L0 slot never aliases two
   different ticks. *)
let route t h =
  if t.w0 = 0 then Heap.add t.overflow ~key:h.h_key h
  else begin
    let tick = h.h_key asr t.g_bits in
    if tick <= t.base0 then due_push t h
    else begin
      let l1 = tick asr t.l0_bits in
      if l1 = t.base1 then begin
        let s = tick land t.mask0 in
        t.slots0.(s) <- h :: t.slots0.(s);
        bits_set t.occ0 s
      end
      else if l1 - t.base1 < t.w1 then begin
        let s = l1 land t.mask1 in
        t.slots1.(s) <- h :: t.slots1.(s);
        bits_set t.occ1 s
      end
      else Heap.add t.overflow ~key:h.h_key h
    end
  end

(* Place a handle whose key and seq were just assigned. *)
let insert t h =
  t.live <- t.live + 1;
  if t.w0 > 0 && t.live = 1 && t.n_cancelled = 0 then
    (* Empty wheel: the sole resident entry parks directly in [due]
       (possibly ahead of the cursor — the one place that is allowed),
       skipping the slot insert on add and the bitmap scan on pop. This
       is the transient add/pop rhythm the engine settles into between
       bursts, where the wheel was 3x slower than the bare heap
       (BENCH_4). The cursor does not move, so ordering state is
       untouched. *)
    due_push t h
  else begin
    (* A parked ahead-of-cursor singleton only stays in [due] while it
       is alone; route it back through the tiers before adding a second
       entry, restoring the [due]-holds-only-reached-ticks invariant
       that pop ordering relies on. *)
    if t.n_due = 1 && t.w0 > 0 then begin
      let h0 = t.due.(0) in
      if h0.h_key asr t.g_bits > t.base0 then begin
        t.n_due <- 0;
        route t h0
      end
    end;
    route t h
  end

let add t ~key value =
  let h = { h_key = key; h_seq = t.next_seq; h_value = value; h_state = Pending } in
  t.next_seq <- t.next_seq + 1;
  insert t h;
  h

(* Drop dead entries off the overflow head so its top is a live entry;
   returns that entry's key ([max_int] once the overflow is empty). *)
let rec overflow_top_key t =
  if Heap.is_empty t.overflow || is_pending (Heap.top t.overflow) then
    Heap.top_key t.overflow
  else begin
    Heap.drop t.overflow;
    t.n_cancelled <- t.n_cancelled - 1;
    overflow_top_key t
  end

(* Pull overflow entries that now fall inside the L1 window. Heap pop
   order is (key, seq), and every tier ends in the (key, seq)-ordered
   [due] heap, so migration cannot reorder equal keys. *)
let rec migrate_overflow t =
  let k = overflow_top_key t in
  if
    (not (Heap.is_empty t.overflow))
    && (k asr t.g_bits) asr t.l0_bits < t.base1 + t.w1
  then begin
    let h = Heap.top t.overflow in
    Heap.drop t.overflow;
    route t h;
    migrate_overflow t
  end

let keep_live t h =
  match h.h_state with
  | Pending -> true
  | Cancelled ->
      t.n_cancelled <- t.n_cancelled - 1;
      false
  | Fired -> assert false (* fired entries are never resident *)

let rec due_append_live t = function
  | [] -> ()
  | h :: rest ->
      if keep_live t h then due_append t h;
      due_append_live t rest

(* Only called with [due] empty, so the slot's live entries become the
   whole heap. *)
let drain_slot0 t ~s ~tick =
  t.base0 <- tick;
  let entries = t.slots0.(s) in
  t.slots0.(s) <- [];
  bits_clear t.occ0 s;
  due_append_live t entries;
  due_heapify t

let cascade_l1 t ~s ~l1_tick =
  t.base1 <- l1_tick;
  t.base0 <- l1_tick lsl t.l0_bits;
  let entries = t.slots1.(s) in
  t.slots1.(s) <- [];
  bits_clear t.occ1 s;
  migrate_overflow t;
  List.iter (fun h -> if keep_live t h then route t h) entries

(* Advance the cursor until [due] has a live head. Returns false when
   nothing live is left anywhere. *)
let rec ensure_due t =
  if t.n_due > 0 then begin
    match t.due.(0).h_state with
    | Pending -> true
    | Cancelled ->
        due_drop_root t;
        t.n_cancelled <- t.n_cancelled - 1;
        ensure_due t
    | Fired -> assert false
  end
  else
    t.live > 0
    && begin
         let r0 = t.base0 land t.mask0 in
         let s = bits_next t.occ0 ~from:(r0 + 1) ~limit:t.w0 in
         if s >= 0 then begin
           drain_slot0 t ~s ~tick:((t.base1 lsl t.l0_bits) lor s);
           ensure_due t
         end
         else begin
           (* L0 exhausted: the next event is in the earliest occupied
              L1 slot, which always precedes anything in overflow. *)
           let r1 = t.base1 land t.mask1 in
           let s1 =
             match bits_next t.occ1 ~from:(r1 + 1) ~limit:t.w1 with
             | -1 -> bits_next t.occ1 ~from:0 ~limit:r1
             | s1 -> s1
           in
           if s1 >= 0 then begin
             let delta = (s1 - r1 + t.w1) land t.mask1 in
             cascade_l1 t ~s:s1 ~l1_tick:(t.base1 + delta);
             ensure_due t
           end
           else begin
             let k = overflow_top_key t in
             (not (Heap.is_empty t.overflow))
             && begin
                  (* Jump the window to the overflow head. *)
                  let l1 = (k asr t.g_bits) asr t.l0_bits in
                  t.base1 <- l1;
                  t.base0 <- l1 lsl t.l0_bits;
                  migrate_overflow t;
                  ensure_due t
                end
           end
         end
       end

let fire t h =
  h.h_state <- Fired;
  t.live <- t.live - 1;
  h.h_value

let empty () = invalid_arg "Timer_wheel.take: no pending entry"

let rec take_heap_only t =
  if Heap.is_empty t.overflow then empty ()
  else begin
    let h = Heap.top t.overflow in
    Heap.drop t.overflow;
    match h.h_state with
    | Cancelled ->
        t.n_cancelled <- t.n_cancelled - 1;
        take_heap_only t
    | Pending -> fire t h
    | Fired -> assert false
  end

let take t =
  if t.w0 = 0 then take_heap_only t
  else if ensure_due t then begin
    let h = t.due.(0) in
    due_drop_root t;
    fire t h
  end
  else empty ()

let next_key t =
  if t.w0 = 0 then overflow_top_key t
  else if ensure_due t then t.due.(0).h_key
  else max_int

(* Sweep cancelled residents out of every tier. The [due] heap is
   filtered in place and re-heapified. The overflow heap is rebuilt by
   draining in (key, seq) order and re-adding survivors, so their
   relative order — including equal-key FIFO — is preserved. *)
let compact t =
  t.n_compactions <- t.n_compactions + 1;
  let kept = ref 0 in
  for i = 0 to t.n_due - 1 do
    let h = t.due.(i) in
    if keep_live t h then begin
      t.due.(!kept) <- h;
      incr kept
    end
  done;
  Array.fill t.due !kept (t.n_due - !kept) t.sentinel;
  t.n_due <- !kept;
  due_heapify t;
  if t.w0 > 0 then begin
    bits_iter t.occ0 ~limit:t.w0 (fun s ->
        let kept = List.filter (keep_live t) t.slots0.(s) in
        t.slots0.(s) <- kept;
        match kept with [] -> bits_clear t.occ0 s | _ :: _ -> ());
    bits_iter t.occ1 ~limit:t.w1 (fun s ->
        let kept = List.filter (keep_live t) t.slots1.(s) in
        t.slots1.(s) <- kept;
        match kept with [] -> bits_clear t.occ1 s | _ :: _ -> ())
  end;
  let rec drain acc =
    if Heap.is_empty t.overflow then List.rev acc
    else begin
      let h = Heap.top t.overflow in
      Heap.drop t.overflow;
      drain (if keep_live t h then h :: acc else acc)
    end
  in
  List.iter (fun h -> Heap.add t.overflow ~key:h.h_key h) (drain []);
  t.on_compaction ()

let compaction_floor = 64

let cancel t h =
  match h.h_state with
  | Cancelled | Fired -> false
  | Pending ->
      h.h_state <- Cancelled;
      t.live <- t.live - 1;
      t.n_cancelled <- t.n_cancelled + 1;
      t.n_total_cancelled <- t.n_total_cancelled + 1;
      if t.n_cancelled > compaction_floor && t.n_cancelled > t.live then
        compact t;
      true

let rearm t h ~key =
  match h.h_state with
  | Fired ->
      h.h_key <- key;
      h.h_seq <- t.next_seq;
      h.h_state <- Pending;
      t.next_seq <- t.next_seq + 1;
      insert t h;
      h
  | Pending ->
      ignore (cancel t h : bool);
      add t ~key h.h_value
  | Cancelled ->
      (* Possibly still resident in a tier: it cannot be reused. *)
      add t ~key h.h_value
