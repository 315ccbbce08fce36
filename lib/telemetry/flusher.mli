(** Periodic snapshot flushing.

    A flusher bundles a metric registry and a list of output sinks;
    each {!flush} rewrites every sink in place (last write wins,
    so a crash mid-run still leaves the latest complete snapshot on
    disk). {!schedule} hooks it onto the simulation clock through a
    scheduler capability, keeping this library independent of the
    engine:

    {[
      let fl =
        Flusher.create
          ~outputs:[ Flusher.Metrics_json "/tmp/metrics.json" ] ()
      in
      Flusher.schedule fl ~period:(Time.ms 100)
        ~every:(fun ~period f -> Engine.every engine ~period f)
    ]} *)

type output =
  | Metrics_json of string  (** write {!Export.metrics_json} to path *)

type t

val create : ?registry:Metrics.registry -> outputs:output list -> unit -> t
(** Defaults to {!Metrics.default}. *)

val flush : t -> unit
(** Write every output now. *)

val flushes : t -> int

val schedule :
  t ->
  every:(period:Planck_util.Time.t -> (unit -> unit) -> 'handle) ->
  period:Planck_util.Time.t ->
  'handle
(** Flush once per [period] via the provided scheduler and return its
    handle: pass [Engine.every engine] for fire-and-forget ([unit]) or
    [Engine.periodic engine] to keep the cancellable [Engine.Timer.t].
    Raises [Invalid_argument] on non-positive periods. *)
