(** The typed (whole-repo) rule tier: hot-path reachability,
    type-aware poly-compare / float-equality, hot-alloc /
    hot-schedule, dead-export, plus [Lint_taint]'s determinism rule,
    and the [(rule, symbol)] baseline shared by every typed tier.

    Each finding carries a stable [symbol] (the qualified def or export
    id) so baseline entries survive line churn. *)

type t

val default_hot_roots : string list
(** The per-packet / per-event entry points: switch ingress/forward,
    collector sample path, engine and timer-wheel dispatch, tcp segment
    handling. *)

val prepare : ?hot_roots:string list -> Lint_cmt_index.t -> t
(** Build the hot closure (forward reachability from [hot_roots]). *)

val index : t -> Lint_cmt_index.t

val roots : t -> string list
(** The roots [prepare] was given (defaulted or not) — lets the domain
    tier extend them with its own shard roots. *)

val is_hot : t -> string -> bool
val hot_chain : t -> string -> string
(** Witness chain from a root to the given hot def. *)

val findings : ?dead_export:bool -> t -> Lint_finding.t list
(** All deep findings (typed events + dead exports + determinism
    taint). [dead_export:false] skips the export analysis — used when
    only part of the repo's cmt artifacts are guaranteed to exist, where
    missing referencing units would fabricate dead exports. *)

type baseline_entry = { rule : string; symbol : string; line : int }
(** One [<rule> <symbol> -- justification] line; [line] is 1-based. *)

val load_baseline : string -> (baseline_entry list, string) result
(** Parse a baseline file: one [<rule> <symbol> -- justification] per
    line, [#] comments and blanks ignored. *)

val apply_baseline :
  baseline_entry list -> Lint_finding.t list ->
  Lint_finding.t list * Lint_finding.t list
(** [apply_baseline entries findings] is [(kept, baselined)]; a finding
    is baselined when some entry matches its [(rule, symbol)]. Findings
    with an empty symbol are never baselined. *)

val stale_baseline :
  file:string -> ran:(string -> bool) -> baseline_entry list ->
  Lint_finding.t list -> Lint_finding.t list
(** One [stale-baseline] error, located at its line of [file], for
    every entry whose rule [ran] and that matches none of [findings]. *)
