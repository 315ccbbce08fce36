(** A bounded FIFO ring buffer.

    Models the netmap receive ring between the monitor NIC and a Planck
    collector: the producer (simulated NIC) pushes frames, the consumer
    (collector poll loop) drains them in batches. When the ring is full,
    pushes fail — exactly the frame-drop behaviour of a full hardware
    ring. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] is an empty ring holding at most [capacity]
    elements. Raises [Invalid_argument] if [capacity <= 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push r v] enqueues [v]; returns [false] (dropping [v]) if full. *)

val pop : 'a t -> 'a option
(** Dequeue the oldest element. *)

val pop_batch : 'a t -> max:int -> 'a list
(** [pop_batch r ~max] dequeues up to [max] oldest elements, oldest
    first. *)

val drops : 'a t -> int
(** Number of elements rejected by {!push} since creation. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Snapshot of the current contents, oldest first, without consuming
    them. *)
