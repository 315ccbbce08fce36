(** A hierarchical timer wheel layered over the binary min-heap.

    The event-queue behind {!Engine}: O(1) insert and cancel for the
    short horizon (two wheel levels), with a min-heap overflow tier for
    the far future. Pop order is exactly {!Heap}'s — ascending key,
    strict FIFO among equal keys — across all tiers, so swapping the
    wheel in for the bare heap changes no event ordering.

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

type 'a t

type 'a handle
(** A scheduled entry. Exactly one of: pending, cancelled, fired. *)

val create :
  ?config:config -> ?on_compaction:(unit -> unit) -> unit -> 'a t
(** [on_compaction] fires after each lazy-delete compaction sweep (for
    telemetry). Raises [Invalid_argument] on out-of-range config. *)

val length : 'a t -> int
(** Live (pending) entries; cancelled residents are not counted. *)

val is_empty : 'a t -> bool

val add : 'a t -> key:int -> 'a -> 'a handle
(** Insert with priority [key] (nanoseconds). O(1) into a future tick
    of the wheel horizon; O(log n) into the current tick's due heap or
    the overflow tier. *)

val cancel : 'a t -> 'a handle -> bool
(** Lazy-delete: O(1) state flip; the entry is reclaimed when its slot
    drains, or by a compaction sweep once cancelled residents outnumber
    live entries (past a small floor). Returns [false] if the handle
    was already cancelled or had fired. *)

val is_pending : 'a handle -> bool

val key : 'a handle -> int

val seq : 'a handle -> int
(** Insertion sequence number (the FIFO tie-break among equal keys). *)

val next_key : 'a t -> int
(** Key of the next live entry, or [max_int] if none are pending (a
    pending entry keyed [max_int] reads the same; check {!is_empty}
    when that matters). May advance internal cursors; never changes
    pop order. Allocates nothing. *)

val take : 'a t -> 'a
(** Remove the next live entry and return its value; its key is what
    {!next_key} read just before. Order: minimum key, FIFO among equal
    keys. Cancelled entries are skipped and reclaimed. Allocates
    nothing with a wheel configured. Raises [Invalid_argument] if no
    entry is pending. *)

(** {2 Introspection} — feeds per-engine telemetry and tests. *)

val cancelled_resident : 'a t -> int
(** Cancelled entries not yet reclaimed. *)

val total_cancelled : 'a t -> int
(** Successful {!cancel} calls since creation. *)

val compactions : 'a t -> int
(** Compaction sweeps since creation. *)
