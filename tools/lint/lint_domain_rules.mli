(** The domain-safety / shard-confinement tier.

    Classifies every toplevel [lib/] binding into the four-point
    lattice [immutable < atomic < engine-scoped < shared-mutable] and
    fires three rules on the shared-mutable class:
    [shared-mutable-global] (the state exists), [shard-unsafe-reach]
    (it is reachable from the per-packet/per-event hot roots) and
    [nonatomic-counter] (a read-modify-write on it). Findings carry a
    stable symbol and the classification, so the [(rule, symbol)]
    baseline and the JSON report both survive line churn. *)

type cls = Immutable | Atomic | Engine_scoped | Shared_mutable

val class_label : cls -> string
(** ["immutable"] / ["atomic"] / ["engine-scoped"] / ["shared-mutable"]. *)

type entry = {
  e_id : string;  (** qualified binding id *)
  e_file : string;
  e_line : int;
  e_class : cls;
  e_type : string;  (** rendered type *)
  e_hot : bool;  (** in the shard-root forward closure *)
}

val spawn_callers : Lint_cmt_index.t -> string list
(** Every def with a call-graph edge to [Domain.spawn] — the defs whose
    closures become per-shard entry points under the sharded engine. *)

val shard_closure : Lint_deep_rules.t -> Lint_callgraph.closure
(** Forward reachability from the deep tier's hot roots PLUS
    {!spawn_callers}: everything a shard domain can run. *)

val inventory : ?closure:Lint_callgraph.closure -> Lint_deep_rules.t -> entry list
(** Every classified toplevel binding of every [lib/] unit, sorted by
    id. Covers 100% of toplevel mutable bindings by construction: only
    stateless functions are excluded. [e_hot] is membership in
    [closure] (default {!shard_closure}). *)

val findings : Lint_deep_rules.t -> Lint_finding.t list
(** The three rules over {!inventory}, sorted by location. *)
