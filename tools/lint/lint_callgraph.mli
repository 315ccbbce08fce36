(** BFS closures over the [Lint_cmt_index] def/ref graph, with witness
    chains for findings. *)

type closure

val forward : Lint_cmt_index.t -> roots:string list -> closure
(** Everything reachable from [roots] following references forward —
    the hot set when seeded with the per-packet entry points. Roots are
    included. *)

val backward : Lint_cmt_index.t -> roots:string list -> closure
(** Everything that can reach one of [roots] — the tainted set when
    seeded with defs containing determinism sources. Roots included. *)

val mem : closure -> string -> bool

val chain : closure -> string -> string list
(** Shortest witness chain from a root to the given node (for [forward];
    for [backward], from the node down to a root), empty when the node
    is not in the closure. *)

val chain_string : closure -> string -> string
(** [chain] rendered as ["a -> b -> c"]. *)
