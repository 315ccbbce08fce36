(** Fixed-interval ground-truth time-series recorder.

    Complements the {!Journal}: where the journal captures discrete
    events, a timeseries samples continuous state — link utilization,
    shared-buffer occupancy, per-flow true vs collector-estimated rate —
    at a fixed simulated interval, for export as CSV. Series are
    probe thunks registered by name; new series may be added after
    sampling has started (earlier rows are padded with [nan] on
    export). *)

module Time = Planck_util.Time

type t

val create : ?capacity:int -> interval:Time.t -> unit -> t
(** [create ~interval ()] records at most [capacity] (default 65536)
    rows (the oldest is evicted when full), sampled every [interval] of
    simulated time once {!start}ed. *)

val interval : t -> Time.t

val add_series : t -> name:string -> (unit -> float) -> unit
(** Register a probe. [name] becomes the CSV column header; it must not
    contain a comma or newline. *)

val names : t -> string list
(** Registered series names, in registration order. *)

val sample : t -> now:Time.t -> unit
(** Record one row by calling every probe. Usually driven by {!start},
    but callable directly (tests, one-shot snapshots). *)

val start :
  t ->
  every:(period:Time.t -> (unit -> unit) -> 'handle) ->
  clock:(unit -> Time.t) ->
  'handle
(** [start t ~every ~clock] samples on the simulation clock:
    [every ~period:(interval t) (fun () -> sample t ~now:(clock ()))].
    The scheduler is passed as a capability because telemetry sits below
    netsim in the dependency graph. *)

val rows : t -> (Time.t * float array) list
(** Sampled rows, oldest first. Arrays are as wide as the series list
    was at sampling time. *)

(** {2 Export / import} *)

val to_csv : t -> string
(** Header [time_s,<name>,...]; one row per sample, times in seconds,
    values in shortest round-trip float form, short rows padded with
    [nan]. *)

val of_csv : string -> (string list * (float * float array) list, string) result
(** Parse a {!to_csv} document back into series names and
    [(time_s, values)] rows — the input side of
    [planck_cli inspect --timeseries]. *)
