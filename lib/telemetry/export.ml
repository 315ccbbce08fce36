(* Snapshot writers: metric registries as JSON documents, and the tiny
   file sink behind the CLI/bench output flags. *)

let json_of_snapshot (s : Metrics.snapshot) =
  let base =
    [
      ("subsystem", Json.String s.Metrics.subsystem);
      ("name", Json.String s.Metrics.name);
      ("label", Json.String s.Metrics.label);
    ]
  in
  let value =
    match s.Metrics.value with
    | Metrics.Counter_value v ->
        [ ("kind", Json.String "counter"); ("value", Json.Int v) ]
    | Metrics.Gauge_value { value; max } ->
        [
          ("kind", Json.String "gauge");
          ("value", Json.Float value);
          ("max", Json.Float max);
        ]
    | Metrics.Histogram_value { count; sum; min; max; buckets } ->
        [
          ("kind", Json.String "histogram");
          ("count", Json.Int count);
          ("sum", Json.Int sum);
          ("min", Json.Int min);
          ("max", Json.Int max);
          ( "buckets",
            Json.List
              (List.map
                 (fun (lo, hi, n) ->
                   Json.List [ Json.Int lo; Json.Int hi; Json.Int n ])
                 buckets) );
        ]
  in
  Json.Obj (base @ value)

let metrics_to_json registry =
  Json.Obj
    [
      ( "metrics",
        Json.List (List.map json_of_snapshot (Metrics.snapshot registry)) );
    ]

let metrics_json registry = Json.to_string (metrics_to_json registry)

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
