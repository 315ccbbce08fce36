(** The controller's out-of-band control network.

    Models the latency of messages between the SDN controller, the
    switches' control-plane CPUs, and the collectors: a random one-way
    delay per message (management network hop + endpoint processing),
    plus per-operation costs for the expensive switch-side actions —
    TCAM rule installation and flow-counter reads — using figures from
    the paper and the literature it cites (rule installs of a few
    milliseconds; reading a switch's counters takes tens of
    milliseconds, cf. the 75–200 ms end-to-end numbers in Table 1).

    Message ordering is preserved per channel (TCP connection
    semantics). *)

type config = {
  one_way_min : Planck_util.Time.t;  (** message latency floor *)
  one_way_max : Planck_util.Time.t;
  rule_install_min : Planck_util.Time.t;  (** TCAM update *)
  rule_install_max : Planck_util.Time.t;
  stats_read : Planck_util.Time.t;
      (** switch CPU time to read all flow counters *)
}

type t

val create :
  Planck_netsim.Engine.t ->
  ?config:config ->
  prng:Planck_util.Prng.t ->
  unit ->
  t

val config : t -> config

val send : t -> (unit -> unit) -> unit
(** Deliver a message: run the continuation after the one-way latency
    (FIFO per channel). *)

val install_rule : t -> (unit -> unit) -> unit
(** One-way latency + TCAM installation time, then the continuation. *)

val read_stats : t -> (unit -> unit) -> unit
(** Round trip + counter-read time, then the continuation (which
    receives counter values captured {e at read time} — the caller
    should sample inside the continuation). *)
