(** A binary min-heap of [int] values keyed by integer priorities.

    Orders the switch ingress pipeline and the sFlow export queue, so
    insertion order is preserved among equal keys (FIFO tie-breaking):
    two entries added with the same key pop in the order they were
    added. Values are ints — callers keep what they order in a slot
    array and store slot numbers here.

    Entries live in parallel int arrays, so {!add}, {!top_key}, {!top}
    and {!drop} allocate nothing beyond array growth and store no
    pointer. *)

type t

val create : unit -> t
(** A fresh empty heap. *)

val length : t -> int

val is_empty : t -> bool

val add : t -> key:int -> int -> unit
(** [add h ~key v] inserts [v] with priority [key]. O(log n). *)

val top_key : t -> int
(** Key of the minimum entry, or [max_int] if empty (a resident key of
    [max_int] reads the same; check {!is_empty} when that matters).
    O(1). *)

val top : t -> int
(** Value of the minimum entry: the one {!drop} removes next (FIFO
    among equal keys). O(1). Raises [Invalid_argument] if empty. *)

val drop : t -> unit
(** Remove the minimum entry. O(log n). Raises [Invalid_argument] if
    empty. *)
