(** The sharded engine: one {!Engine} event loop per OCaml domain,
    synchronized with conservative lookahead.

    A {!group} owns [n] engines (labelled ["shard0"].. so each shard's
    instance metrics are distinguishable), each holding its shard's
    whole run in its own journal until {!merge_journals}, and the SPSC
    channels carrying cross-shard frames.
    Simulated time advances in lockstep windows of
    [W = min (lookahead, 10ms)], where the lookahead bound is the
    smallest propagation delay of any cross-shard link: a frame
    transmitted in window [\[T, T+W)] arrives no earlier than [T+W], so
    every shard can safely run a whole window without hearing from its
    peers, and a barrier per window is the only synchronization.

    Determinism: channel entries are stamped with the transmit window,
    and a shard entering window [r] consumes exactly the entries
    stamped [< r] — which the barrier guarantees are all present — in
    channel registration order. The set and order of events each engine
    processes is therefore a pure function of the simulation, and with
    one shard the whole protocol degenerates to the single-domain
    [Engine.run] chunk loop, event for event. *)

type group

val create : shards:int -> group
(** [shards] engines named ["shard<i>"], no channels yet. Their shard
    journals record iff [Journal.default] is enabled at this call.
    Raises [Invalid_argument] if [shards < 1]. *)

val shards : group -> int

val engine : group -> int -> Engine.t
(** The shard's engine. Shard 0's engine doubles as the group's
    reference clock (phase markers, post-run readouts). *)

val lookahead : group -> Planck_util.Time.t option
(** Smallest cross-link propagation delay registered so far; [None]
    until the first {!channel} (e.g. a 1-shard group), in which case
    windows fall back to the 10 ms chunk. *)

val channel :
  group ->
  src:int ->
  dst:int ->
  prop_delay:Planck_util.Time.t ->
  deliver:(Planck_packet.Packet.t -> unit) ->
  Planck_util.Time.t -> Planck_packet.Packet.t -> unit
(** Register one direction of a cross-shard link and return its
    handoff (what {!Txport.create}'s [?handoff] wants): called on the
    [src] shard's domain with a frame and its arrival time, it enqueues
    the frame for the [dst] shard, which schedules [deliver] in its own
    wheel at that time. Channels must all be registered before {!run}
    (wiring happens on the spawning domain). [prop_delay] must be
    positive — it tightens the group lookahead. Arrival times passed to
    one handoff must never decrease (one link's [now + prop_delay]
    cannot): frames are delivered in the order they were handed off,
    and {!run} raises [Invalid_argument] if a later frame would arrive
    earlier. *)

val run :
  group ->
  horizon:Planck_util.Time.t ->
  local_done:(int -> bool) ->
  unit
(** Spawn one domain per shard and advance all engines in lockstep
    windows until every shard reports [local_done] at a window boundary
    or the horizon is reached (whichever comes first; the clocks end
    equal on the boundary). [local_done shard] runs on that shard's
    domain and must touch only state owned by it. Exceptions raised
    inside a shard abort the whole group and re-raise (the first one,
    by shard id) on the caller. After the join it adds the shards'
    events and high-water to the label-less [engine] rows of
    {!Planck_telemetry.Metrics.default} (see {!Engine}). *)

val merge_journals : group -> into:Planck_telemetry.Journal.t -> unit
(** Fold the engines' shard journals into [into], deterministically
    ordered by (sim-time, shard id) — see
    {!Planck_telemetry.Journal.merge_into}. *)
