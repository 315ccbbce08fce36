(** Single-producer single-consumer unbounded queue.

    The cross-shard channel primitive: exactly one domain pushes and
    exactly one domain pops. Built as a linked list with a sentinel
    node — the producer owns the tail, the consumer owns the head, and
    the only shared word per node is its [next] pointer, published with
    an [Atomic] store so the payload written before the link is visible
    to the consumer that follows it.

    Both operations are wait-free; neither blocks on the other. A
    producer may keep pushing while the consumer drains, which is
    exactly the overlap the shard round protocol produces (shard A can
    enter window [n] and transmit while shard B still drains window
    [n-1] arrivals from the same channel). *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Producer side only. *)

val pop : 'a t -> 'a option
(** Consumer side only. [None] when the queue is observed empty. *)

val peek : 'a t -> 'a option
(** Consumer side only: the element {!pop} would return, without
    consuming it. Lets the shard drain stop at the first element
    stamped with a window it must not consume yet. *)

val drain : 'a t -> ('a -> unit) -> unit
(** Consumer side only: pop until empty, applying [f] in FIFO order. *)

val set_debug : bool -> unit
(** Process-wide toggle for the role check, which confines each role
    of a channel to one domain (so N shard instances of one shard body
    are told apart). When on, the first domain to push a given channel
    claims its producer slot and the first to pop/peek claims its
    consumer slot; a later push/pop/peek from a different domain raises
    [Failure]. Claims are per-channel and permanent for the channel's
    lifetime; leave the toggle off in production runs (the check costs
    two atomic reads per operation). *)
