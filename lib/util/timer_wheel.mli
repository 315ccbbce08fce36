(** A hierarchical timer wheel over integer ids, with min-heap tiers.

    The event-queue behind {!Engine}: O(1) insert and cancel for the
    short horizon (two wheel levels), with a min-heap overflow tier for
    the far future. Pop order is exactly a binary heap's — ascending
    key, strict FIFO among equal keys — across all tiers, so swapping
    the wheel in for the bare heap changes no event ordering.

    Every scheduled thing is an [int] id handed out by {!alloc}. The
    wheel keeps each id's key, sequence number and tier position in
    parallel [int] arrays, so scheduling, cancelling and popping store
    no pointers and allocate nothing beyond array growth. A caller maps
    ids to payloads itself (the engine keeps a callback table). An id
    is in one of three states: released (on the free list), idle
    (allocated, not scheduled) or pending.

    Keys must never go below the last popped key (the engine's clock
    guarantees this); behaviour is still total for smaller keys, which
    simply become due immediately. *)

type config = {
  granularity_bits : int;  (** tick width: [1 lsl granularity_bits] ns *)
  l0_bits : int;  (** level-0 slot count bits; [0] disables the wheel *)
  l1_bits : int;  (** level-1 slot count bits *)
}

val default_config : config
(** 1.024us ticks, ~4.2ms level-0 horizon, ~17.2s level-1 horizon. *)

val heap_only : config
(** Wheel disabled: a plain min-heap. The pre-wheel scheduler, kept as
    the equivalence-test and benchmark baseline. *)

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] on out-of-range config. *)

val alloc : t -> int
(** An idle id: the most recently released one, else a fresh one (ids
    are dense from 0, so the id arrays grow only when every id handed
    out so far is in use). *)

val release : t -> int -> unit
(** Return an idle id to the free list. Raises [Invalid_argument] if
    the id is pending or already released. *)

val schedule : t -> int -> key:int -> unit
(** Make [id] pending at priority [key] (nanoseconds), taking a fresh
    sequence number: among equal keys it pops after everything
    scheduled before it. A pending id is first removed, which counts
    as a cancellation. O(1) into a future tick of the wheel horizon;
    O(log n) into the current tick's due heap or the overflow tier.
    Raises [Invalid_argument] on a released id. *)

val cancel : t -> int -> bool
(** Remove a pending id: O(1) from a wheel slot, O(log n) from a heap
    tier. It becomes idle. Returns [false] (and does nothing) if the id
    was not pending. *)

val is_pending : t -> int -> bool

val length : t -> int
(** Pending ids. *)

val is_empty : t -> bool

val next_key : t -> int
(** Key of the next pending id, or [max_int] if none is pending (a
    pending id keyed [max_int] reads the same; check {!is_empty} when
    that matters). May advance internal cursors; never changes pop
    order. Allocates nothing. *)

val take : t -> int
(** Remove the next pending id and return it, idle; its key is what
    {!next_key} read just before. Order: minimum key, FIFO among equal
    keys. Allocates nothing. Raises [Invalid_argument] if no id is
    pending. *)

(** {2 Introspection} — feeds per-engine telemetry and tests. *)

val total_cancelled : t -> int
(** Pending ids removed without firing ({!cancel}, or {!schedule} of a
    pending id) since creation. *)

val ids : t -> int
(** Distinct ids handed out since creation: the extent of the id
    arrays in use. With ids released as they fire, it stays at the
    high-water mark of ids held at once. *)
