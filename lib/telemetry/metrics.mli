(** Typed metric registry: counters, per-port counter vectors, gauges,
    and log-bucketed integer histograms keyed by
    [(subsystem, name, label)].

    Handles are registered once (typically when the instrumented object
    is created — registration deduplicates, so re-creating an object
    with the same identity reuses its metrics) and updated on hot paths.
    Every update is O(1) and begins with a single branch on the owning
    registry's enabled flag: a disabled registry costs one load+test per
    instrumentation point, which is what lets the instrumentation stay
    compiled into the simulator's per-packet paths.

    The process-wide {!default} registry is what the built-in
    instrumentation (engine, switch, sink, collector, TE) writes to; it
    starts {e disabled}. Experiments opt in with
    [set_enabled default true] (the CLI/bench [--metrics-out] flags do
    this). Tests use private registries from {!create}. *)

type registry

type counter
type counter_vector
type gauge
type histogram

val create : ?enabled:bool -> unit -> registry
(** A fresh registry, enabled unless [~enabled:false]. *)

val default : registry
(** The process-wide registry. Starts disabled. *)

val set_enabled : registry -> bool -> unit
val enabled : registry -> bool

(** {2 Registration}

    Idempotent: the same [(subsystem, name, label)] returns the existing
    handle. Raises [Invalid_argument] if the key is already registered
    with a different metric kind. *)

val counter :
  ?registry:registry ->
  subsystem:string ->
  name:string ->
  ?label:string ->
  unit ->
  counter

val counter_vector :
  ?registry:registry ->
  subsystem:string ->
  name:string ->
  ?label:string ->
  ports:int ->
  unit ->
  counter_vector
(** One counter per port under a single key: what a switch registers
    instead of one {!counter} per port. It costs one registration and
    one array, and builds no per-port label: {!snapshot} expands it to
    counter rows labelled ["<label>.p<i>"] for [i] in [0, ports), and
    {!size} counts those rows.

    Growth: re-registering the key returns the same vector, grown to the
    larger of its length and [ports] with every count kept, so a later
    switch that reuses a name with more ports shares (and extends) the
    earlier one's rows, as per-port counters would. A vector never
    shrinks.

    Labels ending in [".p<digits>"] are reserved for vector rows:
    {!counter}, {!gauge} and {!histogram} raise [Invalid_argument] on
    one, so no snapshot holds two rows under one key.

    Writers: cells are plain ints, not atomics, so each cell must have
    one writer at a time. A switch's vector is updated only by the
    domain that runs the switch's engine; two switches share a vector
    only when they share a name, which does not happen within one
    testbed, and two testbeds in one process do not run at once.
    {!snapshot} and {!reset} are for when no engine runs. *)

val gauge :
  ?registry:registry ->
  subsystem:string ->
  name:string ->
  ?label:string ->
  unit ->
  gauge

val histogram :
  ?registry:registry ->
  subsystem:string ->
  name:string ->
  ?label:string ->
  unit ->
  histogram

(** {2 Updates (hot paths)} *)

(** Counter updates are atomic, so shard domains may share a counter
    without losing increments. *)
module Counter : sig
  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int
end

module Counter_vector : sig
  val incr : counter_vector -> int -> unit
  (** [incr v i] counts one at cell [i]; one enabled-flag branch when
      the registry is off. With the registry on, raises
      [Invalid_argument] if [i] is outside the vector. *)
end

module Gauge : sig
  val set : gauge -> float -> unit
  (** Records the value and tracks the high-water mark. *)

  val set_int : gauge -> int -> unit
  (** Like {!set} but converts after the enabled check, so a disabled
      registry skips the int-to-float conversion too. *)

  val value : gauge -> float
  val max_value : gauge -> float
  (** High-water mark of everything ever [set]; 0 if never set. *)
end

module Histogram : sig
  val observe : histogram -> int -> unit
  (** Record a non-negative integer observation (negative values clamp
      to 0). Intended for nanosecond latencies and byte counts. *)

  val bucket_index : int -> int
  (** Log2 bucketing: bucket 0 holds values [<= 1]; bucket [i >= 1]
      holds [[2^i, 2^(i+1))]. *)

  val bucket_lo : int -> int
  (** Smallest value bucket [i] admits (0 for bucket 0). *)

  val bucket_hi : int -> int
  (** Largest value bucket [i] admits, [2^(i+1) - 1]. *)

  val count : histogram -> int
  val sum : histogram -> int
  val min_value : histogram -> int
  val max_value : histogram -> int
  val mean : histogram -> float

  val quantile : histogram -> float -> int
  (** [quantile h q] for [q] in [0, 1]: the upper bound of the bucket
      where the cumulative count crosses [q] (capped at the observed
      max) — a within-2x estimate, exact values are not retained. *)
end

(** {2 Snapshots} *)

type value =
  | Counter_value of int
  | Gauge_value of { value : float; max : float }
  | Histogram_value of {
      count : int;
      sum : int;
      min : int;
      max : int;
      buckets : (int * int * int) list;
          (** (inclusive lo, inclusive hi, count), non-empty buckets
              only, ascending *)
    }

type snapshot = {
  subsystem : string;
  name : string;
  label : string;
  value : value;
}

val snapshot : registry -> snapshot list
(** Current values, one row per scalar metric and per vector cell,
    sorted by [(subsystem, name, label)] — deterministic regardless of
    registration order. *)

val reset : registry -> unit
(** Zero every metric and vector cell (handles stay registered and
    valid). *)

val size : registry -> int
(** Number of rows {!snapshot} returns. *)
