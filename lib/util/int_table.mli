(** A hash table from non-negative [int] keys to non-negative [int]
    values.

    The switch's forwarding and rewrite tables: every frame-hop looks a
    destination MAC up here. Open addressing with linear probing over
    one flat array of (key, value) slots, so {!find} calls no generic
    hash or compare, allocates nothing, and returns [-1] on a miss
    rather than an option or an exception. {!remove} shifts the rest of
    its probe chain back, so no tombstones accumulate. *)

type t

val create : unit -> t
(** An empty table with room for 4 bindings; it doubles as it fills. *)

val length : t -> int

val find : t -> int -> int
(** [find t key] is the value bound to [key], or [-1] if there is
    none. Raises [Invalid_argument] if [key] is negative. *)

val replace : t -> int -> int -> unit
(** [replace t key v] binds [key] to [v], replacing any earlier binding.
    Raises [Invalid_argument] if [key] or [v] is negative. *)

val remove : t -> int -> unit
(** [remove t key] drops the binding of [key], if any. Raises
    [Invalid_argument] if [key] is negative. *)
