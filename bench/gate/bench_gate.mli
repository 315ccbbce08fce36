(** The perf-trajectory gate: compares a bench run's microbenchmark
    rows against a committed [BENCH_N.json] baseline under per-row
    tolerance bands, and renders trend tables across the whole
    committed trajectory.

    Rows join on a stable kebab-case [id]. Baselines recorded before
    ids existed fall back to {!slug} of the display name, so the gate
    can check against any committed [BENCH_*.json]. *)

type row = {
  id : string;  (** stable join key, kebab-case *)
  name : string;  (** human display name *)
  ns_per_op : float option;
      (** [None] when the OLS analyzer produced no estimate — still a
          row, so a gate can tell "missing" from "regressed" *)
}

val slug : string -> string
(** Kebab-case a display name: lowercase, runs of non-alphanumerics
    collapse to ['-'], edges trimmed. *)

val rows_of_json : Planck_telemetry.Json.t -> (row list, string) result
(** Accepts a [bench --json] document (reads its ["micro"] member) or a
    bare micro list. Rows without an ["id"] member get [slug name];
    ["ns_per_op"] absent or null parses as [None]. *)

val rows_to_json : row list -> Planck_telemetry.Json.t
(** The ["micro"] member shape [bench --json] emits; null estimates
    emit [ns_per_op: null]. *)

(** {2 Comparison} *)

type status =
  | Improved of float  (** faster by more than the band; delta < 0 *)
  | In_band of float  (** within the tolerance band *)
  | Regressed of float  (** slower by more than the band — fails *)
  | New_row  (** no baseline row; informational *)
  | Removed_row  (** baseline row absent from current run — fails *)
  | Missing_estimate
      (** baseline had an estimate, current run came back null — fails
          (distinct from {!Removed_row}: the bench still exists) *)
  | No_baseline_estimate
      (** baseline estimate was null; nothing to compare against *)

type comparison = {
  cmp_id : string;
  cmp_name : string;
  baseline_ns : float option;
  current_ns : float option;
  tolerance : float;  (** the band this row was judged under *)
  status : status;
}

val compare_rows :
  ?tolerance:float ->
  ?noise_floor_ns:float ->
  ?overrides:(string * float) list ->
  baseline:row list ->
  current:row list ->
  unit ->
  comparison list
(** Joins by id, falling back to the display name (so curated ids
    still match baselines recorded before ids existed); baseline order
    first, then new rows. [tolerance] is the default fractional band
    (0.15 = ±15%); [overrides] widen or narrow it per row id.
    [noise_floor_ns] (default 5.0) is an absolute allowance added on
    both sides of the band — sub-50ns rows sit at clock granularity,
    where a few ns of scheduler jitter exceeds any sane percentage;
    pass [0.] for exact multiplicative bands. *)

val passes : comparison list -> bool
(** No [Regressed], [Removed_row], or [Missing_estimate] rows. *)

val render_check : comparison list -> string
(** One line per row with status, ns values and delta, plus a summary
    verdict line. *)

val parse_override : string -> (string * float, string) result
(** Parses ["row-id=0.30"] (fractional tolerance, must be >= 0). *)

(** {2 Committed trajectory} *)

val bench_files : dir:string -> string list
(** Paths of [BENCH_<n>.json] files in [dir], sorted by [n]. *)

val latest_bench : dir:string -> string option
(** Highest-numbered [BENCH_<n>.json], if any. *)

val load_rows : path:string -> (row list, string) result
(** {!rows_of_json} over a file's contents. *)

val trend : dir:string -> (string, string) result
(** Markdown table: one row per micro (first-appearance order, keyed by
    id but folded by display name across the id scheme change, like the
    gate's join), one column per committed [BENCH_<n>.json], ns/op
    cells ([—] where a file lacks the row or its estimate was null).
    [Error] if [dir] has no bench files or one fails to parse. *)
