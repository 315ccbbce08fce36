(** The discrete-event simulation engine.

    A single-threaded event loop over an exact-time event queue
    ({!Planck_util.Timer_wheel}: a ring of one-nanosecond FIFO slots
    for the next 4096 ns, a min-heap beyond). Every scheduled thing is
    an int id of the queue, and the engine keeps a callback table
    indexed by id. Events at equal times fire in scheduling order, so
    the simulation is fully deterministic — the queue pops in exactly a
    binary heap's (time, seq) order. *)

type t

val create : ?label:string -> ?journal:Planck_telemetry.Journal.t -> unit -> t
(** [label] names this engine's metric rows (default [""], the
    label-less rows; see Introspection below); [journal] is
    {!journal} (default {!Planck_telemetry.Journal.default}). *)

val now : t -> Planck_util.Time.t
(** Current simulated time. *)

val label : t -> string

val journal : t -> Planck_telemetry.Journal.t
(** The journal this engine's switches, flows, collectors and TE record
    into; each engine of a {!Shard} group has its own. *)

val schedule : t -> delay:Planck_util.Time.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay]. Raises
    [Invalid_argument] on negative delay. One-shot, fire-and-forget;
    per-packet code should prefer a preallocated {!Timer.t} so no
    closure is allocated per event. *)

val schedule_at : t -> time:Planck_util.Time.t -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at absolute time [time], which must
    not be in the past. The event takes a queue id that is released
    when it fires, so queue memory stays bounded by the most events
    pending at once. *)

(** Cancellable, reusable timers. A [Timer.t] owns one queue id and
    its cell of the callback table for the engine's lifetime;
    {!Timer.reschedule} re-queues that id, so a steady
    fire-and-reschedule rhythm allocates nothing, and {!Timer.cancel}
    removes it from the queue at once (O(1) from a ring slot, O(log n)
    from the far tier). This replaces the generation-counter idiom: a
    cancelled timer leaves no zombie event to fire later. *)
module Timer : sig
  type engine = t

  type t

  val create : engine -> (unit -> unit) -> t
  (** A new unarmed timer running the callback when it fires. *)

  val set_callback : t -> (unit -> unit) -> unit
  (** Replace the callback (e.g. to close a knot with a record built
      after the timer). Affects subsequent fires, including an already
      armed one. *)

  val reschedule : t -> delay:Planck_util.Time.t -> unit
  (** Cancel any pending fire and arm at [now + delay]. Raises
      [Invalid_argument] on negative delay. *)

  val reschedule_at : t -> time:Planck_util.Time.t -> unit
  (** Cancel any pending fire and arm at absolute [time] (not in the
      past). *)

  val cancel : t -> unit
  (** Disarm. No-op if not pending. *)

  val pending : t -> bool
  (** Is the timer armed and not yet fired? *)
end

val periodic :
  t -> period:Planck_util.Time.t -> ?until:Planck_util.Time.t ->
  (unit -> unit) -> Timer.t
(** [periodic t ~period f] runs [f] at [now + period], then every
    [period] until the optional horizon (inclusive). The tick closure
    is allocated once; the returned timer cancels or re-paces the
    stream. *)

val every :
  t -> period:Planck_util.Time.t -> ?until:Planck_util.Time.t ->
  (unit -> unit) -> unit
(** {!periodic} without the handle, for call sites that never cancel. *)

val run : ?until:Planck_util.Time.t -> t -> unit
(** Process events in time order. With [until], stops once the next
    event would be strictly later than [until] (and advances the clock
    to [until]); otherwise runs until the queue drains. A cancelled
    timer has left the queue, so it never wakes the loop. *)

val step : t -> bool
(** Process exactly one event; [false] if the queue was empty. *)

(** {2 Introspection}

    Exposed so telemetry and tests can assert on scheduler state. As
    {!step}/{!run} return, the engine adds these counts to its
    [engine.*] rows of {!Planck_telemetry.Metrics.default} under
    {!label}, raising [pending_high_water] to {!max_pending}: the
    label-less rows sum over every unlabelled engine a process runs. A
    labelled engine has no [events_processed] row; {!Shard.run} adds
    its shards' events to the label-less one. *)

val events_processed : t -> int
(** Events executed by {!step}/{!run} since creation. *)

val pending : t -> int
(** Events currently queued. *)

val max_pending : t -> int
(** High-water mark of {!pending} over the engine's lifetime. *)

val timers_cancelled : t -> int
(** Successful cancellations since creation. *)
