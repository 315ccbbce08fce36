(** An exact-time event queue over integer ids: a ring of
    one-nanosecond slots, with a min-heap tier for the far future.

    The event queue behind {!Engine}. The ring covers the 4096 ns after
    the last taken key, one FIFO slot per nanosecond, so scheduling,
    cancelling and popping there are O(1) plus a bitmap scan. An id
    scheduled further ahead waits in an indexed (key, seq) heap and pops
    from it directly. Pop order is exactly a binary heap's: ascending
    key, strict FIFO among equal keys.

    Every scheduled thing is an [int] id handed out by {!alloc}. The
    queue keeps each id's key, sequence number and position in parallel
    [int] arrays, so scheduling, cancelling and popping store no
    pointers and allocate nothing beyond array growth. A caller maps ids
    to payloads itself (the engine keeps a callback table). An id is in
    one of three states: released (on the free list), idle (allocated,
    not scheduled) or pending. *)

type t

val create : unit -> t

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
    as a cancellation. O(1) within 4096 ns of {!last_key}, O(log n)
    beyond. Raises [Invalid_argument] on a released id, or on a key
    below {!last_key} (the engine's clock never goes back). *)

val cancel : t -> int -> bool
(** Remove a pending id: O(1) from the ring, O(log n) from the far
    tier. It becomes idle. Returns [false] (and does nothing) if the id
    was not pending. *)

val is_pending : t -> int -> bool

val length : t -> int
(** Pending ids. *)

val take_until : t -> int -> int
(** [take_until t horizon] removes the next pending id if its key is at
    most [horizon] and returns it, idle; otherwise returns [-1] and
    changes nothing. Order: minimum key, FIFO among equal keys. The
    taken key becomes {!last_key}. One slot search per call. Allocates
    nothing. *)

val last_key : t -> int
(** The key of the id last taken ([0] before the first): the floor for
    {!schedule}. *)

(** {2 Introspection} — feeds per-engine telemetry and tests. *)

val total_cancelled : t -> int
(** Pending ids removed without firing ({!cancel}, or {!schedule} of a
    pending id) since creation. *)

val ids : t -> int
(** Distinct ids handed out since creation: the extent of the id
    arrays in use. With ids released as they fire, it stays at the
    high-water mark of ids held at once. *)
