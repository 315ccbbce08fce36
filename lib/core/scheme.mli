(** The routing schemes compared in the paper's §7:

    - [Static]: PAST base routes only (the ECMP-class baseline);
    - [Planck_te]: Planck collectors on every switch driving the
      greedy TE application;
    - [Poll]: Hedera-style global first fit on polled OpenFlow
      counters (1 s and 100 ms variants);
    - [Sflow_te]: OpenSample-style global first fit on control-plane
      sFlow samples (capped at ~300 samples/s);
    - "Optimal" is not a scheme but a topology — run [Static] on
      {!Testbed.optimal}. *)

type t =
  | Static
  | Planck_te of Planck_controller.Te.config
  | Poll of Planck_baselines.Poller.config
  | Sflow_te of Planck_baselines.Sflow_te.config

(** How Planck collectors keep per-flow state (only [Planck_te]
    deploys collectors; the other schemes ignore this). [Exact] is the
    paper's unbounded one-entry-per-flow table; [Tiered] bounds
    resident state with a count-min sketch plus heavy-hitter promotion
    ({!Planck_sketch.Tiered_table}). *)
type flow_table = Exact | Tiered of Planck_sketch.Tiered_table.config

val tiered_default : flow_table
(** [Tiered Planck_sketch.Tiered_table.default_config]. *)

val flow_table_name : flow_table -> string
(** ["exact" | "tiered"] — the CLI spelling. *)

val planck_te_default : t
val poll_1s : t
val poll_100ms : t
val sflow_te_default : t

val name : t -> string

type deployed = {
  scheme : t;
  controller : Planck_controller.Controller.t option;
  te : Planck_controller.Te.t option;
  poller : Planck_baselines.Poller.t option;
  sflow_te : Planck_baselines.Sflow_te.t option;
}

val shard_refusal : shards:int -> t -> string option
(** Why the scheme cannot run on a group of [shards] domains, or [None]
    if it can: the control-plane schemes need every engine on one
    domain. *)

val deploy : ?flow_table:flow_table -> Testbed.t -> t -> deployed
(** Set the scheme up on a built testbed (creates collectors, enables
    mirroring, starts pollers — whatever the scheme needs).
    [flow_table] defaults to [Exact], so existing experiments are
    byte-for-byte unchanged. Raises [Invalid_argument] when
    {!shard_refusal} refuses the testbed's shard group. *)

val reroutes : deployed -> int
