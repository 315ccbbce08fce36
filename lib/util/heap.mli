(** A binary min-heap keyed by integer priorities.

    Orders the switch ingress pipeline, the sFlow export queue and the
    timer wheel's far-future tier, so insertion order is preserved
    among equal keys (FIFO tie-breaking): two entries added with the
    same key pop in the order they were added.

    Entries live in parallel key/seq/value arrays, so {!add},
    {!top_key}, {!top} and {!drop} allocate nothing beyond array
    growth. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** A fresh empty heap. [dummy] fills every empty value cell; removed
    values are overwritten with it so the heap never keeps them
    reachable. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> key:int -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key]. O(log n). *)

val top_key : 'a t -> int
(** Key of the minimum entry, or [max_int] if empty (a resident key of
    [max_int] reads the same; check {!is_empty} when that matters).
    O(1). *)

val top : 'a t -> 'a
(** Value of the minimum entry: the one {!drop} removes next (FIFO
    among equal keys). O(1). Raises [Invalid_argument] if empty. *)

val drop : 'a t -> unit
(** Remove the minimum entry. O(log n). Raises [Invalid_argument] if
    empty. *)
