(** The discrete-event simulation engine.

    A single-threaded event loop over a hierarchical timer wheel
    ({!Planck_util.Timer_wheel}: O(1) insert/cancel short horizon,
    min-heap overflow). Events at equal times fire in scheduling order,
    so the simulation is fully deterministic — the wheel preserves the
    heap's exact (time, seq) pop order. *)

type t

val create : ?label:string -> ?queue:Planck_util.Timer_wheel.config -> unit -> t
(** [label] names this engine's instance metrics (default: a fresh
    ["engine<N>"]). [queue] selects the event-queue geometry (default:
    {!default_queue}, normally the wheel;
    {!Planck_util.Timer_wheel.heap_only} recovers the pre-wheel
    scheduler for equivalence tests and baselines). *)

val default_queue : unit -> Planck_util.Timer_wheel.config
(** The geometry used by {!create} when [?queue] is omitted. *)

val set_default_queue : Planck_util.Timer_wheel.config -> unit
(** Override {!default_queue} process-wide. For A/B runs (wheel vs
    heap-only) of whole experiments whose constructors don't expose the
    engine; set it back around the run. *)

val now : t -> Planck_util.Time.t
(** Current simulated time. *)

val label : t -> string

val schedule : t -> delay:Planck_util.Time.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay]. Raises
    [Invalid_argument] on negative delay. One-shot, fire-and-forget;
    per-packet code should prefer a preallocated {!Timer.t} so no
    closure is allocated per event. *)

val schedule_at : t -> time:Planck_util.Time.t -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at absolute time [time], which must
    not be in the past. *)

(** Cancellable, reusable timers. A [Timer.t] owns a single queued
    closure allocated at {!Timer.create}; {!Timer.reschedule} re-queues
    that same closure, re-arming the fired wheel handle in place so a
    steady fire-and-reschedule rhythm allocates nothing, and
    {!Timer.cancel} is an O(1) lazy delete (the
    wheel reclaims the slot, compacting when cancelled entries pile
    up). This replaces the generation-counter idiom: a cancelled timer
    leaves no zombie event to fire later. *)
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
    to [until]); otherwise runs until the queue drains. Cancelled
    timers are skipped without waking the loop. *)

val step : t -> bool
(** Process exactly one event; [false] if the queue was empty. *)

(** {2 Introspection}

    Exposed so telemetry and tests can assert on scheduler state. Each
    engine also registers instance metrics labelled with {!label}
    ([engine.pending_high_water], [engine.timers_cancelled],
    [engine.compactions]) plus the process-wide aggregates
    ([engine.events_processed] counter and a monotone
    [engine.pending_high_water] gauge) in
    {!Planck_telemetry.Metrics.default}. *)

val events_processed : t -> int
(** Events executed by {!step}/{!run} since creation. *)

val pending : t -> int
(** Live events currently queued (cancelled entries excluded). *)

val max_pending : t -> int
(** High-water mark of {!pending} over the engine's lifetime. *)

val timers_cancelled : t -> int
(** Successful cancellations since creation. *)

val compactions : t -> int
(** Lazy-delete compaction sweeps since creation. *)
