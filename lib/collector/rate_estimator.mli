(** Planck's sequence-number-based flow rate estimator (paper §3.2.2,
    §5.4).

    Port mirroring gives samples at an {e unknown, varying} sampling
    rate, so the usual multiply-by-N estimate is impossible. Instead,
    TCP sequence numbers are byte counters in their own right: two
    samples A and B of the same flow give the exact bytes the flow moved
    between them, [(S_B - S_A) / (t_B - t_A)], regardless of how many
    packets were dropped in between.

    Raw two-point estimates are hopelessly jittery at microsecond scales
    because TCP transmits in bursts (Figure 10a). The estimator
    therefore clusters samples into bursts: a gap of at least [min_gap]
    (200 µs at 10 Gbps) starts a new burst, and an estimate is emitted
    between burst anchors. Once a flow reaches steady state the gaps
    vanish, so a burst is also force-closed after [max_burst] (700 µs)
    to keep estimates flowing (Figure 10b).

    Out-of-order sequence numbers (reordering or retransmission) are
    ignored, as the paper prescribes. Sequence numbers are unwrapped
    mod 2{^32}. *)

type t

val create :
  ?min_gap:Planck_util.Time.t ->
  ?max_burst:Planck_util.Time.t ->
  ?max_rate:Planck_util.Rate.t ->
  unit ->
  t
(** Defaults: [min_gap] 200 µs, [max_burst] 700 µs. [max_rate] clamps
    emitted estimates to a physical ceiling (the link rate): reroutes
    make fresh-path mirror copies overtake old-path copies still queued
    in the monitor port, which otherwise yields momentary
    faster-than-wire estimates. *)

val update :
  t -> time:Planck_util.Time.t -> seq32:int -> Planck_util.Rate.t option
(** Feed one sample (on-wire sequence number, collector receive time).
    Returns [Some rate] whenever a new estimate is produced. *)

val current : t -> Planck_util.Rate.t option
(** Latest estimate, if any. *)

val samples : t -> int
val out_of_order : t -> int
(** Samples ignored as reordered/retransmitted. *)

(** A 200 µs-style rolling-average estimator over the same sample
    stream — the strawman of Figure 10a, kept for comparison and for
    the fig10 ablation bench. Rates are computed from the sequence span
    currently inside the window. *)
module Rolling : sig
  type t

  val create : ?window:Planck_util.Time.t -> unit -> t
  (** Default window: 200 µs. *)

  val update :
    t -> time:Planck_util.Time.t -> seq32:int -> Planck_util.Rate.t option
end
