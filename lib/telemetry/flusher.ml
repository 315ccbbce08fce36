module Time = Planck_util.Time

type output = Metrics_json of string

type t = {
  registry : Metrics.registry;
  outputs : output list;
  mutable flushes : int;
}

let create ?(registry = Metrics.default) ~outputs () =
  { registry; outputs; flushes = 0 }

let flush t =
  t.flushes <- t.flushes + 1;
  List.iter
    (fun (Metrics_json path) ->
      Export.write_file ~path (Export.metrics_json t.registry))
    t.outputs

let flushes t = t.flushes

(* The engine lives above this library (netsim depends on telemetry),
   so periodic flushing takes the scheduler as a capability and returns
   whatever handle it produces — pass [Engine.every engine] partially
   applied for fire-and-forget, or [Engine.periodic engine] to keep the
   cancellable timer:

     Flusher.schedule fl ~period:(Time.ms 100)
       ~every:(fun ~period f -> Engine.periodic engine ~period f)  *)
let schedule t ~every ~period =
  if period <= 0 then invalid_arg "Flusher.schedule: period must be positive";
  every ~period (fun () -> flush t)
