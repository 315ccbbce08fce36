(** An unbounded FIFO of (int key, value) pairs.

    The per-frame queue of the simulated data plane: port class queues,
    frames propagating on a wire, and the host stack's send and receive
    queues. Keys and values sit in parallel arrays of a growable ring,
    so {!push}, {!peek_key} and {!pop} allocate nothing beyond the
    occasional doubling. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** A fresh empty queue. [dummy] fills every empty value cell; popped
    values are overwritten with it so the queue never keeps them
    reachable. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> 'a -> unit
(** Append [v] with [key] at the tail. Amortised O(1). *)

val peek_key : 'a t -> int
(** Key of the oldest entry, or [max_int] if the queue is empty. *)

val pop : 'a t -> 'a
(** Remove and return the oldest value. Raises [Invalid_argument] if
    the queue is empty. *)
