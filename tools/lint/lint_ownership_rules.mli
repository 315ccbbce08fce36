(** The ownership / transfer-safety tier.

    Four rules over the ownership facts the index records plus the
    domain tier's shard closure: [use-after-transfer] (a mutable local
    is read/written/RMW'd after flowing into [Spsc.push] /
    [Timer.cancel] on some path), [spsc-role-confinement] (one
    channel's push sites — or pop/peek/drain sites — are reachable
    from more than one shard root), [blocking-in-shard-body]
    (Mutex/Condition/Domain.join/Unix-I/O/console reachable from a
    shard closure) and [release-leak] ([Buffer_pool.try_alloc]
    succeeded but a raise escapes before any release). Findings carry
    stable [(rule, symbol)] keys for the committed baseline, and the
    fact base renders into the committed [tools/lint/ownership.txt]
    inventory with a drift self-check, mirroring the domain tier's
    [shared_state.txt]. *)

val findings : Lint_deep_rules.t -> Lint_finding.t list
(** All four rules, sorted by location. [lib/] scope only. *)

type entry = { o_kind : string; o_symbol : string; o_detail : string }
(** Kinds: [transfer-site] (symbol [def:point]), [spsc-producer] /
    [spsc-consumer] (symbol [chan:def]), [blocking-reach] (symbol
    [def:op], detail the shard-root witness chain). *)

val inventory : Lint_deep_rules.t -> entry list
(** Every ownership fact in [lib/], deduped on (kind, symbol), sorted. *)

val inventory_text : entry list -> string
(** The committed-file format: [<kind> <symbol> -- <detail>] with a
    comment header. Line-number-free, so the file survives churn. *)

val load_inventory : string -> ((string * string) list, string) result
(** Parse a committed inventory back to [(kind, symbol)] pairs — the
    projection the repo self-check compares against {!inventory}. *)
