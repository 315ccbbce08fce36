(* Tests for Planck_telemetry: the metric registry, JSON codec, the
   journal and its loop analyzer and Chrome view, time-series and
   exporters, plus the engine wiring into the process-wide default
   registry. *)

module Time = Planck_util.Time
module Json = Planck_telemetry.Json
module Metrics = Planck_telemetry.Metrics
module Journal = Planck_telemetry.Journal
module Timeseries = Planck_telemetry.Timeseries
module Inspect = Planck_telemetry.Inspect
module Export = Planck_telemetry.Export
module Engine = Planck_netsim.Engine

let check_float = Alcotest.(check (float 1e-9))

(* ---- registry ---- *)

let registry_counters_gauges () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg ~subsystem:"t" ~name:"c" () in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  Alcotest.(check int) "counter value" 42 (Metrics.Counter.value c);
  let g = Metrics.gauge ~registry:reg ~subsystem:"t" ~name:"g" () in
  Metrics.Gauge.set g 3.5;
  Metrics.Gauge.set g 1.0;
  check_float "gauge last value" 1.0 (Metrics.Gauge.value g);
  check_float "gauge high-water" 3.5 (Metrics.Gauge.max_value g);
  Metrics.Gauge.set_int g 7;
  check_float "set_int" 7.0 (Metrics.Gauge.value g);
  check_float "set_int high-water" 7.0 (Metrics.Gauge.max_value g);
  Alcotest.(check int) "size" 2 (Metrics.size reg)

let registry_idempotent_registration () =
  let reg = Metrics.create () in
  let a = Metrics.counter ~registry:reg ~subsystem:"s" ~name:"n" () in
  let b = Metrics.counter ~registry:reg ~subsystem:"s" ~name:"n" () in
  Metrics.Counter.incr a;
  Metrics.Counter.incr b;
  Alcotest.(check int) "same handle" 2 (Metrics.Counter.value a);
  Alcotest.(check int) "still one metric" 1 (Metrics.size reg);
  (* Distinct labels are distinct metrics. *)
  let l = Metrics.counter ~registry:reg ~subsystem:"s" ~name:"n" ~label:"x" () in
  Metrics.Counter.incr l;
  Alcotest.(check int) "labelled is separate" 1 (Metrics.Counter.value l);
  Alcotest.(check int) "two metrics" 2 (Metrics.size reg);
  (* Re-registering the key as a different kind is a bug in the caller. *)
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       ignore (Metrics.gauge ~registry:reg ~subsystem:"s" ~name:"n" ());
       false
     with Invalid_argument _ -> true)

let registry_disabled_is_noop () =
  let reg = Metrics.create ~enabled:false () in
  let c = Metrics.counter ~registry:reg ~subsystem:"t" ~name:"c" () in
  let g = Metrics.gauge ~registry:reg ~subsystem:"t" ~name:"g" () in
  let h = Metrics.histogram ~registry:reg ~subsystem:"t" ~name:"h" () in
  Metrics.Counter.incr c;
  Metrics.Gauge.set g 9.0;
  Metrics.Histogram.observe h 100;
  Alcotest.(check int) "counter untouched" 0 (Metrics.Counter.value c);
  check_float "gauge untouched" 0.0 (Metrics.Gauge.max_value g);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.Histogram.count h);
  (* Flipping it on makes the same handles live. *)
  Metrics.set_enabled reg true;
  Metrics.Counter.incr c;
  Alcotest.(check int) "enabled counts" 1 (Metrics.Counter.value c)

let registry_snapshot_deterministic () =
  (* Same metrics registered in different orders must snapshot
     identically: sorted by (subsystem, name, label). *)
  let build order =
    let reg = Metrics.create () in
    List.iter
      (fun (sub, name, label, v) ->
        let c =
          Metrics.counter ~registry:reg ~subsystem:sub ~name ?label ()
        in
        Metrics.Counter.add c v)
      order;
    List.map
      (fun s -> (s.Metrics.subsystem, s.Metrics.name, s.Metrics.label))
      (Metrics.snapshot reg)
  in
  let a =
    build
      [
        ("z", "n", None, 1);
        ("a", "n", Some "l2", 2);
        ("a", "n", Some "l1", 3);
        ("a", "m", None, 4);
      ]
  in
  let b =
    build
      [
        ("a", "m", None, 4);
        ("a", "n", Some "l1", 3);
        ("a", "n", Some "l2", 2);
        ("z", "n", None, 1);
      ]
  in
  Alcotest.(check (list (triple string string string)))
    "order-independent" a b;
  Alcotest.(check (list (triple string string string)))
    "sorted"
    [ ("a", "m", ""); ("a", "n", "l1"); ("a", "n", "l2"); ("z", "n", "") ]
    a

let registry_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg ~subsystem:"t" ~name:"c" () in
  let h = Metrics.histogram ~registry:reg ~subsystem:"t" ~name:"h" () in
  Metrics.Counter.add c 5;
  Metrics.Histogram.observe h 10;
  Metrics.reset reg;
  Alcotest.(check int) "counter zeroed" 0 (Metrics.Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.Histogram.count h);
  Alcotest.(check int) "handles survive" 2 (Metrics.size reg);
  Metrics.Counter.incr c;
  Alcotest.(check int) "handle still live" 1 (Metrics.Counter.value c)

(* ---- counter vectors ---- *)

let row_values reg =
  List.map
    (fun (s : Metrics.snapshot) ->
      ( s.label,
        match s.value with
        | Metrics.Counter_value n -> n
        | Metrics.Gauge_value _ | Metrics.Histogram_value _ -> -1 ))
    (Metrics.snapshot reg)

let vector_rows_and_growth () =
  let reg = Metrics.create () in
  let v =
    Metrics.counter_vector ~registry:reg ~subsystem:"switch" ~name:"enqueued"
      ~label:"s0" ~ports:3 ()
  in
  Metrics.Counter_vector.incr v 0;
  Metrics.Counter_vector.incr v 2;
  Metrics.Counter_vector.incr v 2;
  Alcotest.(check (list (pair string int)))
    "one counter row per port"
    [ ("s0.p0", 1); ("s0.p1", 0); ("s0.p2", 2) ]
    (row_values reg);
  (* A later switch reusing the name with more ports shares the vector:
     it grows, and the first switch's counts survive. *)
  let w =
    Metrics.counter_vector ~registry:reg ~subsystem:"switch" ~name:"enqueued"
      ~label:"s0" ~ports:11 ()
  in
  Metrics.Counter_vector.incr w 10;
  Metrics.Counter_vector.incr v 2;
  Alcotest.(check (list (pair string int)))
    "grown, counts kept, rows sorted by label"
    [
      ("s0.p0", 1); ("s0.p1", 0); ("s0.p10", 1); ("s0.p2", 3); ("s0.p3", 0);
      ("s0.p4", 0); ("s0.p5", 0); ("s0.p6", 0); ("s0.p7", 0); ("s0.p8", 0);
      ("s0.p9", 0);
    ]
    (row_values reg);
  (* A smaller re-registration neither shrinks nor resets it. *)
  ignore
    (Metrics.counter_vector ~registry:reg ~subsystem:"switch" ~name:"enqueued"
       ~label:"s0" ~ports:2 ()
      : Metrics.counter_vector);
  Alcotest.(check int) "never shrinks" 11 (Metrics.size reg);
  Alcotest.(check int) "size counts rows" 11
    (List.length (Metrics.snapshot reg))

let vector_kind_clashes () =
  let reg = Metrics.create () in
  let raises what f =
    Alcotest.(check bool) what true
      (try
         ignore (f () : unit);
         false
       with Invalid_argument _ -> true)
  in
  let vector ?(label = "s0") ports () =
    ignore
      (Metrics.counter_vector ~registry:reg ~subsystem:"sw" ~name:"n" ~label
         ~ports ()
        : Metrics.counter_vector)
  in
  let counter label () =
    ignore
      (Metrics.counter ~registry:reg ~subsystem:"sw" ~name:"n" ~label ()
        : Metrics.counter)
  in
  ignore (Metrics.gauge ~registry:reg ~subsystem:"sw" ~name:"n" ~label:"g" ());
  raises "a gauge's key refuses a vector" (vector ~label:"g" 2);
  vector 2 ();
  raises "a vector's key refuses a counter" (counter "s0");
  raises "a vector's key refuses a histogram" (fun () ->
      ignore
        (Metrics.histogram ~registry:reg ~subsystem:"sw" ~name:"n" ~label:"s0"
           ()));
  (* Row-shaped labels belong to vectors, whether or not one holds
     that row yet; other labels stay free. *)
  raises "a vector row's label refuses a counter" (counter "s0.p1");
  raises "a label past the vector is refused too" (counter "s0.p2");
  raises "and a gauge" (fun () ->
      ignore
        (Metrics.gauge ~registry:reg ~subsystem:"sw" ~name:"n" ~label:"t.p0"
           ()));
  counter "s0.p" ();
  counter "s0.p1x" ();
  counter "s0p1" ();
  vector 3 ();
  vector ~label:"s0.p1" 1 ();
  let labels = List.map fst (row_values reg) in
  Alcotest.(check (list string))
    "every row once"
    [ "g"; "s0.p"; "s0.p0"; "s0.p1"; "s0.p1.p0"; "s0.p1x"; "s0.p2"; "s0p1" ]
    labels

let vector_disabled_and_reset () =
  let reg = Metrics.create ~enabled:false () in
  let v =
    Metrics.counter_vector ~registry:reg ~subsystem:"t" ~name:"v" ~ports:2 ()
  in
  Metrics.Counter_vector.incr v 1;
  Alcotest.(check (list (pair string int)))
    "disabled registry leaves the cells untouched"
    [ (".p0", 0); (".p1", 0) ]
    (row_values reg);
  Metrics.set_enabled reg true;
  Metrics.Counter_vector.incr v 1;
  Metrics.Counter_vector.incr v 0;
  Metrics.reset reg;
  Alcotest.(check (list (pair string int)))
    "reset zeroes the cells" [ (".p0", 0); (".p1", 0) ] (row_values reg);
  Metrics.Counter_vector.incr v 1;
  Alcotest.(check (list (pair string int)))
    "handle still live" [ (".p0", 0); (".p1", 1) ] (row_values reg);
  Alcotest.(check bool) "out-of-range cell raises" true
    (try
       Metrics.Counter_vector.incr v 2;
       false
     with Invalid_argument _ -> true)

(* Whatever mix of kinds and labels gets registered (clashes raise and
   are skipped), a snapshot names each (subsystem, name, label) once
   and [size] is its length. *)
let registry_rows_unique =
  let open QCheck in
  let label =
    Gen.oneofl [ "s0"; "s0.p0"; "s0.p1"; "s0.p3"; "s0.p"; "s1"; "s0.p1.p0"; "" ]
  in
  let op =
    Gen.(
      triple (int_range 0 3) (oneofl [ "a"; "b" ]) (pair label (int_range 1 5)))
  in
  let print (kind, name, (label, ports)) =
    Printf.sprintf "%d %s %S %d" kind name label ports
  in
  Test.make ~name:"metrics: snapshot rows unique, size = rows" ~count:300
    (make ~print:(Print.list print) (Gen.list_size (Gen.int_range 0 25) op))
    (fun ops ->
      let reg = Metrics.create () in
      List.iter
        (fun (kind, name, (label, ports)) ->
          try
            match kind with
            | 0 ->
                Metrics.Counter.incr
                  (Metrics.counter ~registry:reg ~subsystem:"x" ~name ~label ())
            | 1 ->
                ignore (Metrics.gauge ~registry:reg ~subsystem:"x" ~name ~label ())
            | 2 ->
                ignore
                  (Metrics.histogram ~registry:reg ~subsystem:"x" ~name ~label ())
            | _ ->
                Metrics.Counter_vector.incr
                  (Metrics.counter_vector ~registry:reg ~subsystem:"x" ~name
                     ~label ~ports ())
                  (ports - 1)
          with Invalid_argument _ -> ())
        ops;
      let rows =
        List.map
          (fun (s : Metrics.snapshot) -> (s.subsystem, s.name, s.label))
          (Metrics.snapshot reg)
      in
      List.length rows = Metrics.size reg
      && List.length (List.sort_uniq compare rows) = List.length rows)

(* ---- histogram bucketing ---- *)

let histogram_bucket_boundaries () =
  let idx = Metrics.Histogram.bucket_index in
  Alcotest.(check int) "0 -> bucket 0" 0 (idx 0);
  Alcotest.(check int) "1 -> bucket 0" 0 (idx 1);
  Alcotest.(check int) "2 -> bucket 1" 1 (idx 2);
  Alcotest.(check int) "3 -> bucket 1" 1 (idx 3);
  Alcotest.(check int) "4 -> bucket 2" 2 (idx 4);
  Alcotest.(check int) "2^10 -> bucket 10" 10 (idx 1024);
  Alcotest.(check int) "2^10 - 1 -> bucket 9" 9 (idx 1023);
  Alcotest.(check int) "negative clamps to 0" 0 (idx (-5));
  (* Every power of two starts its own bucket; the previous value ends
     the bucket below. *)
  for i = 1 to 60 do
    let lo = Metrics.Histogram.bucket_lo i
    and hi = Metrics.Histogram.bucket_hi i in
    Alcotest.(check int) "lo lands in bucket" i (idx lo);
    Alcotest.(check int) "hi lands in bucket" i (idx hi);
    Alcotest.(check int) "hi+1 overflows to next" (i + 1) (idx (hi + 1))
  done

let histogram_observations () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~subsystem:"t" ~name:"h" () in
  List.iter (Metrics.Histogram.observe h) [ 1; 100; 1000; 10_000 ];
  Alcotest.(check int) "count" 4 (Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 11_101 (Metrics.Histogram.sum h);
  Alcotest.(check int) "min" 1 (Metrics.Histogram.min_value h);
  Alcotest.(check int) "max" 10_000 (Metrics.Histogram.max_value h);
  check_float "mean" 2775.25 (Metrics.Histogram.mean h);
  (* Quantiles are bucket upper bounds, capped at the observed max. *)
  Alcotest.(check int) "q1.0 capped at max" 10_000
    (Metrics.Histogram.quantile h 1.0);
  let q50 = Metrics.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "q0.5 within 2x of 100" true (q50 >= 100 && q50 < 256)

(* ---- JSON codec ---- *)

let json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t\xe2\x82\xac");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "" ]);
        ("o", Json.Obj [ ("k", Json.Int 0) ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok parsed ->
      Alcotest.(check bool) "round-trips" true (parsed = doc);
      Alcotest.(check (option string))
        "member access" (Some "a\"b\\c\n\t\xe2\x82\xac")
        (Option.bind (Json.member parsed "s") Json.to_string_opt)

let json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* ---- journal (flight recorder) ---- *)

let journal_disabled_and_corr () =
  let j = Journal.create ~enabled:false () in
  Journal.record j ~ts:(Time.us 1) (Journal.Phase_marker { name = "x"; detail = "" });
  Alcotest.(check int) "disabled records nothing" 0 (Journal.length j);
  (* Correlation ids mint even while disabled: detection order must be
     stable whether or not the journal is on. *)
  let c1 = Journal.next_corr j in
  let c2 = Journal.next_corr j in
  let c3 = Journal.next_corr j in
  Alcotest.(check (list int)) "corr ids count from 1" [ 1; 2; 3 ] [ c1; c2; c3 ];
  Journal.set_enabled j true;
  Journal.record j ~ts:(Time.us 2) ~corr:7
    (Journal.Phase_marker { name = "y"; detail = "" });
  Alcotest.(check int) "enabled records" 1 (Journal.length j);
  match Journal.events j with
  | [ ev ] ->
      Alcotest.(check int) "ts" (Time.us 2) ev.Journal.ts;
      Alcotest.(check (option int)) "corr" (Some 7) ev.Journal.corr
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let journal_ring_eviction () =
  let j = Journal.create ~capacity:4 () in
  for i = 1 to 10 do
    Journal.record j ~ts:(Time.ns i)
      (Journal.Phase_marker { name = string_of_int i; detail = "" })
  done;
  Alcotest.(check int) "length bounded" 4 (Journal.length j);
  Alcotest.(check int) "capacity" 4 (Journal.capacity j);
  Alcotest.(check int) "evicted counted" 6 (Journal.evicted j);
  Alcotest.(check (list string))
    "keeps the newest window" [ "7"; "8"; "9"; "10" ]
    (List.filter_map
       (fun ev ->
         match ev.Journal.body with
         | Journal.Phase_marker { name; _ } -> Some name
         | _ -> None)
       (Journal.events j));
  Journal.clear j;
  Alcotest.(check int) "clear empties" 0 (Journal.length j)

(* One event per constructor, with representative field values. *)
let every_body_kind =
  [
    Journal.Packet_drop { switch = "s3"; port = 2; mirror = true };
    Journal.Queue_high_water
      { switch = "s0"; occupancy = 9001; capacity = 80_000; level = 1 };
    Journal.Tcp_retransmit
      { flow = "10.0.0.1:1 > 10.0.0.2:2/tcp"; seq = 123456 };
    Journal.Tcp_timeout { flow = "a > b/tcp"; rto_ns = 2_000_000 };
    Journal.Tcp_recovery_enter { flow = "a > b/tcp" };
    Journal.Congestion_detected
      { switch = 3; port = 1; gbps = 9.25; capacity_gbps = 10.0; flows = 4 };
    Journal.Estimate_update { switch = 3; flow = "a > b/tcp"; gbps = 4.5 };
    Journal.Flow_promoted
      { switch = 3; flow = "a > b/tcp"; est_bytes = 36_500 };
    Journal.Flow_demoted
      {
        switch = 3;
        flow = "a > b/tcp";
        fold_back_bytes = 72_000;
        lifetime_ns = 12_000_000;
      };
    Journal.Controller_notified { switch = 3; port = 1 };
    Journal.Reroute_decision
      {
        flow = "a > b/tcp";
        old_mac = "02:00:00:00:00:08";
        new_mac = "02:01:00:00:00:08";
        bottleneck_gbps = 7.5;
        mechanism = "arp";
      };
    Journal.Reroute_install { flow = "a > b/tcp"; mechanism = "arp" };
    Journal.Reroute_effective
      { flow = "a > b/tcp"; new_mac = "02:01:00:00:00:08"; switch = 5 };
    Journal.Phase_marker { name = "run_start"; detail = "stride(8)" };
    Journal.Custom
      {
        source = "ext";
        name = "my_event";
        args = [ ("k", Json.Int 3); ("s", Json.String "v") ];
      };
  ]

let journal_ndjson_roundtrip () =
  let j = Journal.create () in
  List.iteri
    (fun i body ->
      let corr = if i mod 2 = 0 then Some (i + 1) else None in
      Journal.record j ~ts:(Time.us (i + 1)) ?corr body)
    every_body_kind;
  match Journal.of_ndjson (Journal.to_ndjson j) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok parsed ->
      Alcotest.(check int) "all events back" (List.length every_body_kind)
        (List.length parsed);
      List.iter2
        (fun (a : Journal.event) (b : Journal.event) ->
          Alcotest.(check bool)
            (Printf.sprintf "event %s round-trips"
               (Journal.name_of_body a.Journal.body))
            true (a = b))
        (Journal.events j) parsed

let journal_writer_streams_past_eviction () =
  let j = Journal.create ~capacity:2 () in
  let lines = ref [] in
  Journal.set_writer j (Some (fun line -> lines := line :: !lines));
  for i = 1 to 8 do
    Journal.record j ~ts:(Time.ns i)
      (Journal.Phase_marker { name = string_of_int i; detail = "" })
  done;
  Journal.set_writer j None;
  Journal.record j ~ts:(Time.ns 9)
    (Journal.Phase_marker { name = "9"; detail = "" });
  (* The ring kept 2 events but the writer saw all 8 (and none after
     being detached); each streamed line is itself valid NDJSON. *)
  Alcotest.(check int) "ring bounded" 2 (Journal.length j);
  Alcotest.(check int) "writer saw every event" 8 (List.length !lines);
  List.iter
    (fun line ->
      match Result.bind (Json.of_string line) Journal.event_of_json with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad streamed line %S: %s" line e)
    !lines

(* Clearing a shard journal returns its correlation counter to the
   shard's base, so shard 1 never mints shard 0's ids. *)
let shard_journal_clear_keeps_corr_base () =
  let j = Journal.shard_journal ~shard:1 in
  ignore (Journal.next_corr j : int);
  ignore (Journal.next_corr j : int);
  Journal.clear j;
  Alcotest.(check int) "first id after clear is the shard's first"
    ((1 lsl 40) + 1)
    (Journal.next_corr j)

(* A shard journal buffers the whole run until the post-join merge, so
   it must never evict: one event past 2^20 (the depth of the ring it
   once had) is kept, in record order, and the merge streams every one
   of them through the destination's writer, oldest first. *)
let shard_journal_keeps_whole_run () =
  let n = (1 lsl 20) + 10 in
  let j = Journal.shard_journal ~shard:0 in
  let body = Journal.Phase_marker { name = "x"; detail = "" } in
  for i = 1 to n do
    Journal.record j ~ts:(Time.ns i) body
  done;
  Alcotest.(check int) "keeps every event" n (Journal.length j);
  Alcotest.(check int) "evicts nothing" 0 (Journal.evicted j);
  let next = ref 1 in
  List.iter
    (fun (ev : Journal.event) ->
      if ev.Journal.ts <> Time.ns !next then
        Alcotest.failf "event %d has ts %d" !next ev.Journal.ts;
      incr next)
    (Journal.events j);
  Alcotest.(check int) "events oldest first" (n + 1) !next;
  let dst = Journal.create ~capacity:4 () in
  let streamed = ref 0 in
  Journal.set_writer dst
    (Some
       (fun line ->
         incr streamed;
         let prefix = Printf.sprintf "{\"ts\":%d," (Time.ns !streamed) in
         if not (String.starts_with ~prefix line) then
           Alcotest.failf "streamed line %d is %S" !streamed line));
  Journal.merge_into dst [ (0, j) ];
  Alcotest.(check int) "merge streams every event" n !streamed

let journal_ndjson_tolerates_unknown_and_blank () =
  let input =
    String.concat "\n"
      [
        {|{"ts":1000,"src":"collector","ev":"congestion_detected","corr":1,"switch":3,"port":1,"gbps":9.0,"capacity_gbps":10.0,"flows":2}|};
        "";
        {|{"ts":2000,"src":"future","ev":"not_yet_invented","corr":1,"payload":42}|};
      ]
  in
  (match Journal.of_ndjson input with
  | Error e -> Alcotest.failf "should tolerate unknown events: %s" e
  | Ok [ known; unknown ] ->
      (match known.Journal.body with
      | Journal.Congestion_detected { switch = 3; port = 1; flows = 2; _ } ->
          ()
      | _ -> Alcotest.fail "known event misparsed");
      (match unknown.Journal.body with
      | Journal.Custom { source = "future"; name = "not_yet_invented"; args }
        ->
          Alcotest.(check (option int))
            "payload preserved" (Some 42)
            (Option.bind (List.assoc_opt "payload" args) Json.to_int_opt)
      | _ -> Alcotest.fail "unknown event should parse as Custom");
      Alcotest.(check (option int))
        "corr preserved on unknown" (Some 1) unknown.Journal.corr
  | Ok evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  match Journal.of_ndjson {|{"src":"x","ev":"y"}|} with
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (String.length e >= 4 && String.sub e 0 4 = "line")
  | Ok _ -> Alcotest.fail "event without ts must not parse"

(* ---- timeseries ---- *)

let timeseries_sampling_roundtrip () =
  let ts = Timeseries.create ~interval:(Time.ms 1) () in
  let x = ref 0.0 in
  Timeseries.add_series ts ~name:"x" (fun () -> !x);
  Timeseries.add_series ts ~name:"x_sq" (fun () -> !x *. !x);
  (* Drive from a real engine through the scheduler capability, like
     Recorder does. *)
  let engine = Engine.create () in
  Engine.every engine ~period:(Time.us 250) (fun () -> x := !x +. 0.25);
  Timeseries.start ts
    ~every:(fun ~period f -> Engine.every engine ~period f)
    ~clock:(fun () -> Engine.now engine);
  Engine.run ~until:(Time.ms 4) engine;
  Alcotest.(check int) "one row per interval" 4
    (List.length (Timeseries.rows ts));
  Alcotest.(check (list string))
    "names in registration order" [ "x"; "x_sq" ] (Timeseries.names ts);
  match Timeseries.of_csv (Timeseries.to_csv ts) with
  | Error e -> Alcotest.failf "CSV parse error: %s" e
  | Ok (names, rows) ->
      Alcotest.(check (list string)) "names survive CSV" [ "x"; "x_sq" ] names;
      List.iter2
        (fun (t_ns, orig) (t_s, parsed) ->
          check_float "time in seconds" (Time.to_float_s t_ns) t_s;
          Alcotest.(check int) "width" (Array.length orig)
            (Array.length parsed);
          Array.iteri
            (fun i v -> check_float "cell round-trips" v parsed.(i))
            orig)
        (Timeseries.rows ts) rows

let timeseries_late_series_nan_padding () =
  let ts = Timeseries.create ~interval:(Time.ms 1) () in
  Timeseries.add_series ts ~name:"a" (fun () -> 1.0);
  Timeseries.sample ts ~now:(Time.ms 1);
  (* A series registered after sampling started: earlier rows export as
     nan in its column. *)
  Timeseries.add_series ts ~name:"b" (fun () -> 2.0);
  Timeseries.sample ts ~now:(Time.ms 2);
  (match Timeseries.of_csv (Timeseries.to_csv ts) with
  | Error e -> Alcotest.failf "CSV parse error: %s" e
  | Ok (names, rows) -> (
      Alcotest.(check (list string)) "both columns" [ "a"; "b" ] names;
      match rows with
      | [ (_, r1); (_, r2) ] ->
          check_float "row1 a" 1.0 r1.(0);
          Alcotest.(check bool) "row1 b is nan" true (Float.is_nan r1.(1));
          check_float "row2 b" 2.0 r2.(1)
      | _ -> Alcotest.fail "expected 2 rows"));
  Alcotest.check_raises "comma in series name rejected"
    (Invalid_argument "Timeseries.add_series: name contains ',' or newline")
    (fun () -> Timeseries.add_series ts ~name:"bad,name" (fun () -> 0.0))

(* ---- inspect: loop reconstruction ---- *)

let inspect_rebuilds_loops () =
  let ev ts corr body = { Journal.ts; corr = Some corr; body } in
  let flow = "10.0.0.1:1 > 10.0.0.2:2/tcp" in
  let events =
    [
      (* Loop 1: all five stages. *)
      ev (Time.us 1000) 1
        (Journal.Congestion_detected
           { switch = 0; port = 1; gbps = 9.0; capacity_gbps = 10.0; flows = 1 });
      ev (Time.us 1200) 1 (Journal.Controller_notified { switch = 0; port = 1 });
      ev (Time.us 1200) 1
        (Journal.Reroute_decision
           {
             flow;
             old_mac = "02:00:00:00:00:02";
             new_mac = "02:01:00:00:00:02";
             bottleneck_gbps = 8.0;
             mechanism = "arp";
           });
      ev (Time.us 1400) 1 (Journal.Reroute_install { flow; mechanism = "arp" });
      ev (Time.us 3500) 1
        (Journal.Reroute_effective
           { flow; new_mac = "02:01:00:00:00:02"; switch = 0 });
      (* Loop 2: congestion notified but no reroute. *)
      ev (Time.us 5000) 2
        (Journal.Congestion_detected
           { switch = 1; port = 2; gbps = 8.0; capacity_gbps = 10.0; flows = 1 });
      ev (Time.us 5200) 2 (Journal.Controller_notified { switch = 1; port = 2 });
      (* A second reroute of the same flow: a flap. *)
      ev (Time.us 9000) 3
        (Journal.Congestion_detected
           { switch = 2; port = 0; gbps = 9.9; capacity_gbps = 10.0; flows = 1 });
      ev (Time.us 9100) 3 (Journal.Controller_notified { switch = 2; port = 0 });
      ev (Time.us 9100) 3
        (Journal.Reroute_decision
           {
             flow;
             old_mac = "02:01:00:00:00:02";
             new_mac = "02:00:00:00:00:02";
             bottleneck_gbps = 6.0;
             mechanism = "arp";
           });
    ]
  in
  let loops = Inspect.loops events in
  Alcotest.(check int) "three loops" 3 (List.length loops);
  (match loops with
  | [ l1; l2; l3 ] ->
      Alcotest.(check int) "ordered by detect" 1 l1.Inspect.corr;
      Alcotest.(check bool) "loop 1 complete" true (Inspect.complete l1);
      Alcotest.(check (option string)) "loop 1 flow" (Some flow)
        l1.Inspect.flow;
      Alcotest.(check (option int))
        "loop 1 total = detect -> effective" (Some (Time.us 2500))
        (Inspect.total l1);
      Alcotest.(check (option string)) "loop 2 has no reroute" None
        l2.Inspect.flow;
      Alcotest.(check bool) "loop 2 incomplete" false (Inspect.complete l2);
      Alcotest.(check (option int)) "loop 2 notify stamp"
        (Some (Time.us 5200))
        l2.Inspect.notify;
      Alcotest.(check bool) "loop 3 incomplete (no install)" false
        (Inspect.complete l3)
  | _ -> Alcotest.fail "unreachable");
  (* Stage durations cover only the complete loop. *)
  List.iter
    (fun (stage, ms) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: one complete loop" stage)
        1 (List.length ms))
    (Inspect.stage_durations loops);
  (match List.assoc_opt "detect->effective" (Inspect.stage_durations loops) with
  | Some [ total_ms ] -> check_float "total in ms" 2.5 total_ms
  | _ -> Alcotest.fail "missing detect->effective");
  Alcotest.(check (list (pair string int)))
    "flap counts" [ (flow, 2) ] (Inspect.flap_counts events);
  Alcotest.(check (option int))
    "event counts" (Some 3)
    (List.assoc_opt "congestion_detected" (Inspect.count_events events))

let inspect_estimate_errors () =
  let names = [ "link:s0.p1:gbps"; "true:f1"; "est:f1"; "true:f2"; "est:f2" ] in
  let rows =
    [
      (* f1 estimated at half its true rate; f2 perfectly. The nan
         estimate row and the below-threshold truth row are skipped. *)
      (0.001, [| 9.0; 8.0; 4.0; 2.0; 2.0 |]);
      (0.002, [| 9.0; 8.0; 4.0; 2.0; 2.0 |]);
      (0.003, [| 9.0; 8.0; Float.nan; 0.01; 5.0 |]);
    ]
  in
  match Inspect.estimate_errors ~names ~rows with
  | [ ("f1", e1); ("f2", e2) ] ->
      check_float "f1 error 50%" 0.5 e1;
      check_float "f2 error 0%" 0.0 e2
  | errors ->
      Alcotest.failf "expected f1 and f2, got %d entries"
        (List.length errors)

(* ---- inspect: CPU samples from a metrics snapshot ---- *)

let cpu_samples_roundtrip () =
  let reg = Metrics.create () in
  List.iter
    (fun (layer, n) ->
      Metrics.Counter.add
        (Metrics.counter ~registry:reg ~subsystem:"profile"
           ~name:"cpu_samples" ~label:layer ())
        n)
    [ ("tcp", 5); ("netsim.engine", 12); ("other", 0) ];
  Metrics.Counter.incr
    (Metrics.counter ~registry:reg ~subsystem:"engine" ~name:"events" ());
  match Json.of_string (Json.to_string (Export.metrics_to_json reg)) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      Alcotest.(check (result (list (pair string int)) string))
        "profile.cpu_samples counters, snapshot order"
        (Ok [ ("netsim.engine", 12); ("other", 0); ("tcp", 5) ])
        (Inspect.cpu_samples_of_metrics_json doc)

let cpu_samples_reject_non_snapshot () =
  List.iter
    (fun doc ->
      match Inspect.cpu_samples_of_metrics_json doc with
      | Ok _ -> Alcotest.failf "accepted %s" (Json.to_string doc)
      | Error _ -> ())
    [ Json.String "nope"; Json.List []; Json.Obj [ ("metrics", Json.Int 1) ] ]

let cpu_samples_render () =
  let lines report =
    String.split_on_char '\n' report
    |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  let first_word line = List.hd (String.split_on_char ' ' line) in
  let report =
    lines
      (Inspect.render_cpu_samples
         [ ("tcp", 1); ("other", 0); ("netsim.engine", 3) ])
  in
  Alcotest.(check (list string))
    "sampled layers by count, then the total"
    [ "layer"; "netsim.engine"; "tcp"; "total" ]
    (List.map first_word report);
  Alcotest.(check bool)
    "share of the total" true
    (String.ends_with ~suffix:"75.0%" (List.nth report 1));
  Alcotest.(check (list string))
    "empty report says how to get one"
    [ "layer"; "total"; "(no CPU samples recorded; run with --profile)" ]
    (match lines (Inspect.render_cpu_samples []) with
    | [ header; total; hint ] -> [ first_word header; first_word total; hint ]
    | other -> other)

(* ---- Chrome trace view of the journal ---- *)

let chrome_records json =
  match Json.of_string json with
  | Error e -> Alcotest.failf "chrome JSON invalid: %s" e
  | Ok doc -> (
      match Option.bind (Json.member doc "traceEvents") Json.to_list_opt with
      | None -> Alcotest.fail "no traceEvents array"
      | Some records -> records)

let str_member e key = Option.bind (Json.member e key) Json.to_string_opt
let int_member e key = Option.bind (Json.member e key) Json.to_int_opt

let chrome_ts e =
  match Option.bind (Json.member e "ts") Json.to_float_opt with
  | Some ts -> ts
  | None -> Alcotest.fail "event without ts"

let chrome_json_valid_and_roundtrips () =
  let ev ?corr us body = { Journal.ts = Time.us us; corr; body } in
  let flow = "10.0.0.1:1 > 10.0.0.2:2/tcp" in
  let flow2 = "10.0.0.3:1 > 10.0.0.4:2/tcp" in
  let detect switch =
    Journal.Congestion_detected
      { switch; port = 1; gbps = 9.0; capacity_gbps = 10.0; flows = 1 }
  in
  (* Two overlapping loops: corr 1 (100-1000 us) reroutes two flows and
     its span ends at the later one's effective stamp; corr 2
     (200-1100 us) goes nowhere. Neither contains the other, which
     synchronous B/E spans would mis-pair. The phase marker comes last
     although it is the earliest event: the view must sort. The
     uncorrelated drop is left out. *)
  let events =
    [
      ev ~corr:1 100 (detect 0);
      ev ~corr:1 150 (Journal.Controller_notified { switch = 0; port = 1 });
      ev ~corr:1 150
        (Journal.Reroute_decision
           {
             flow;
             old_mac = "02:00:00:00:00:02";
             new_mac = "02:01:00:00:00:02";
             bottleneck_gbps = 8.0;
             mechanism = "arp";
           });
      ev ~corr:1 150
        (Journal.Reroute_decision
           {
             flow = flow2;
             old_mac = "02:00:00:00:00:04";
             new_mac = "02:01:00:00:00:04";
             bottleneck_gbps = 7.0;
             mechanism = "arp";
           });
      ev ~corr:2 200 (detect 3);
      ev 300 (Journal.Packet_drop { switch = "s3"; port = 2; mirror = false });
      ev ~corr:1 400 (Journal.Reroute_install { flow; mechanism = "arp" });
      ev ~corr:1 420
        (Journal.Reroute_install { flow = flow2; mechanism = "arp" });
      ev ~corr:1 900
        (Journal.Reroute_effective
           { flow; new_mac = "02:01:00:00:00:02"; switch = 0 });
      ev ~corr:1 1000
        (Journal.Reroute_effective
           { flow = flow2; new_mac = "02:01:00:00:00:04"; switch = 0 });
      ev ~corr:2 1100 (Journal.Controller_notified { switch = 3; port = 1 });
      ev 0 (Journal.Phase_marker { name = "run_start"; detail = "test" });
    ]
  in
  let records = chrome_records (Inspect.chrome_trace events) in
  let metadata, trace =
    List.partition (fun e -> str_member e "ph" = Some "M") records
  in
  (* One process_name metadata record per journal source, so Perfetto
     shows each source as a named process track. *)
  List.iter
    (fun m ->
      Alcotest.(check (option string))
        "metadata kind" (Some "process_name") (str_member m "name"))
    metadata;
  let proc_name m =
    Option.bind (Json.member m "args") (fun a -> str_member a "name")
  in
  Alcotest.(check (list (option string)))
    "sources named in first-appearance order"
    [ Some "experiment"; Some "controller"; Some "collector" ]
    (List.map proc_name metadata);
  (* Sorted by timestamp (microseconds); at equal stamps a loop opens
     before and closes after its instants. *)
  Alcotest.(check (list (triple string string (float 1e-9))))
    "sorted ts in us"
    [
      ("i", "phase", 0.0);
      ("b", "control_loop", 100.0);
      ("i", "congestion_detected", 100.0);
      ("i", "notified", 150.0);
      ("i", "reroute_decision", 150.0);
      ("i", "reroute_decision", 150.0);
      ("b", "control_loop", 200.0);
      ("i", "congestion_detected", 200.0);
      ("i", "reroute_install", 400.0);
      ("i", "reroute_install", 420.0);
      ("i", "reroute_effective", 900.0);
      ("i", "reroute_effective", 1000.0);
      ("e", "control_loop", 1000.0);
      ("i", "notified", 1100.0);
      ("e", "control_loop", 1100.0);
    ]
    (List.map
       (fun e ->
         ( Option.value ~default:"?" (str_member e "ph"),
           Option.value ~default:"?" (str_member e "name"),
           chrome_ts e ))
       trace);
  (* Spans are async and keyed by correlation id. *)
  Alcotest.(check (list (pair string (option int))))
    "span ids"
    [ ("b", Some 1); ("b", Some 2); ("e", Some 1); ("e", Some 2) ]
    (List.filter_map
       (fun e ->
         if str_member e "name" = Some "control_loop" then
           Some
             (Option.value ~default:"?" (str_member e "ph"), int_member e "id")
         else None)
       trace);
  (* Instants carry the journal's own fields as args. *)
  (match
     List.find_opt
       (fun e -> str_member e "name" = Some "reroute_decision")
       trace
   with
  | None -> Alcotest.fail "no reroute_decision instant"
  | Some e ->
      let args = Option.get (Json.member e "args") in
      Alcotest.(check (option int))
        "corr arg" (Some 1) (int_member args "corr");
      Alcotest.(check (option string)) "flow arg" (Some flow)
        (str_member args "flow");
      Alcotest.(check (option string)) "no ev arg" None (str_member args "ev"));
  (* Every event's pid matches its source's metadata pid. *)
  let pid_by_cat =
    List.filter_map
      (fun m ->
        match (proc_name m, int_member m "pid") with
        | Some cat, Some pid -> Some (cat, pid)
        | _ -> None)
      metadata
  in
  List.iter
    (fun e ->
      let cat = Option.value ~default:"?" (str_member e "cat") in
      Alcotest.(check (option int))
        (Printf.sprintf "pid of cat %s" cat)
        (List.assoc_opt cat pid_by_cat)
        (int_member e "pid"))
    trace

let chrome_ts_roundtrip_exact () =
  (* Integer-nanosecond stamps written as microsecond doubles must
     round-trip exactly through print-and-parse for realistic sim
     times. *)
  let stamps = List.init 1000 (fun i -> (i * i * 977) + (i * 13) + (i mod 7)) in
  let events =
    List.map
      (fun ts ->
        { Journal.ts; corr = None;
          body = Journal.Phase_marker { name = "x"; detail = "" } })
      stamps
  in
  let got =
    List.filter_map
      (fun e ->
        if str_member e "ph" = Some "M" then None
        else Some (int_of_float (Float.round (chrome_ts e *. 1000.0))))
      (chrome_records (Inspect.chrome_trace events))
  in
  Alcotest.(check (list int))
    "every stamp recovered to the nanosecond" (List.sort compare stamps) got

(* ---- qcheck: JSON codec is the identity on printable documents ---- *)

(* Finite floats only (nan/inf deliberately print as null) and valid
   UTF-8 strings exercising quotes, backslashes, control characters and
   multi-byte sequences. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    map (String.concat "")
      (list_size (int_bound 8)
         (oneofl
            [
              "a"; "Z"; "0"; " "; "\""; "\\"; "/"; "\n"; "\t"; "\r"; "\b";
              "\012"; "{"; "}"; "["; "]"; ","; ":"; "\xc3\xa9" (* é *);
              "\xe2\x82\xac" (* EUR sign *); "\xe4\xb8\xad" (* CJK *);
            ]))
  in
  let finite_float =
    map2
      (fun m e -> Float.ldexp (float_of_int m) e)
      (int_range (-100_000) 100_000)
      (int_range (-30) 30)
  in
  let big_int =
    frequency
      [ (3, small_signed_int); (1, oneofl [ max_int; min_int; 0; 1 lsl 53 ]) ]
  in
  let scalar =
    oneof
      [
        map (fun i -> Json.Int i) big_int;
        map (fun f -> Json.Float f) finite_float;
        map (fun s -> Json.String s) str;
        map (fun b -> Json.Bool b) bool;
        return Json.Null;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair str (self (n / 2)))) );
             ])

let json_print_parse_id =
  QCheck.Test.make ~name:"json: parse (print doc) = doc" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun doc ->
      match Json.of_string (Json.to_string doc) with
      | Ok parsed -> parsed = doc
      | Error _ -> false)

(* ---- exporters ---- *)

let export_shapes () =
  let reg = Metrics.create () in
  Metrics.Counter.add
    (Metrics.counter ~registry:reg ~subsystem:"a" ~name:"c" ~label:"l" ())
    3;
  Metrics.Gauge.set (Metrics.gauge ~registry:reg ~subsystem:"a" ~name:"g" ()) 2.5;
  Metrics.Histogram.observe
    (Metrics.histogram ~registry:reg ~subsystem:"b" ~name:"h" ())
    100;
  match Json.of_string (Export.metrics_json reg) with
  | Error e -> Alcotest.failf "metrics JSON invalid: %s" e
  | Ok doc -> (
      match Option.bind (Json.member doc "metrics") Json.to_list_opt with
      | None -> Alcotest.fail "no metrics array"
      | Some rows ->
          Alcotest.(check int) "3 rows" 3 (List.length rows);
          let kinds =
            List.map
              (fun r ->
                Option.value ~default:"?"
                  (Option.bind (Json.member r "kind") Json.to_string_opt))
              rows
          in
          Alcotest.(check (list string))
            "kinds in sorted key order"
            [ "counter"; "gauge"; "histogram" ]
            kinds)

(* ---- engine wiring into the default registry ---- *)

let engine_default_registry () =
  (* The engine's instrumentation writes to Metrics.default, which is
     disabled by default; flip it on, run a small sim, and check the
     counters agree with the engine's own introspection. *)
  let was = Metrics.enabled Metrics.default in
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset Metrics.default;
      Metrics.set_enabled Metrics.default was)
    (fun () ->
      let engine = Engine.create () in
      let fired = ref 0 in
      for i = 1 to 10 do
        Engine.schedule engine ~delay:(Time.us i) (fun () -> incr fired)
      done;
      Engine.run engine;
      Alcotest.(check int) "all fired" 10 !fired;
      Alcotest.(check int) "events_processed" 10
        (Engine.events_processed engine);
      Alcotest.(check int) "max_pending high-water" 10
        (Engine.max_pending engine);
      Alcotest.(check int) "pending drained" 0 (Engine.pending engine);
      let c =
        Metrics.counter ~subsystem:"engine" ~name:"events_processed" ()
      in
      Alcotest.(check int) "default-registry counter tracks engine" 10
        (Metrics.Counter.value c);
      let g =
        Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ()
      in
      check_float "default-registry gauge high-water" 10.0
        (Metrics.Gauge.max_value g);
      check_float "default-registry gauge value" 10.0 (Metrics.Gauge.value g);
      let cancelled =
        Metrics.counter ~subsystem:"engine" ~name:"timers_cancelled" ()
      in
      Alcotest.(check int) "default-registry cancellations" 0
        (Metrics.Counter.value cancelled))

(* Engines built one after another publish into the same label-less
   rows: counts add up and the high-water is the larger one. No other
   engine row appears (labelled engines, which the suites after this one
   build, would add theirs). *)
let engines_share_label_less_rows () =
  let was = Metrics.enabled Metrics.default in
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset Metrics.default;
      Metrics.set_enabled Metrics.default was)
    (fun () ->
      (* [pending] one-shots, and a timer re-armed [rearms] times before
         it fires, each re-arm superseding a pending fire *)
      let load engine ~pending ~rearms =
        for i = 1 to pending do
          Engine.schedule engine ~delay:(Time.us i) ignore
        done;
        let tm = Engine.Timer.create engine ignore in
        for i = 1 to rearms + 1 do
          Engine.Timer.reschedule tm ~delay:(Time.us i)
        done
      in
      let a = Engine.create () in
      load a ~pending:7 ~rearms:3;
      Engine.run a;
      let b = Engine.create () in
      load b ~pending:4 ~rearms:5;
      while Engine.step b do () done;
      Alcotest.(check (list int)) "engine counts" [ 8; 3; 8; 5; 5; 5 ]
        [
          Engine.events_processed a; Engine.timers_cancelled a;
          Engine.max_pending a; Engine.events_processed b;
          Engine.timers_cancelled b; Engine.max_pending b;
        ];
      let rows =
        List.filter_map
          (fun (r : Metrics.snapshot) ->
            if r.subsystem <> "engine" then None
            else
              let v =
                match r.value with
                | Metrics.Counter_value n -> float_of_int n
                | Metrics.Gauge_value { value; max } ->
                    check_float "gauge value is its high-water" max value;
                    value
                | Metrics.Histogram_value _ -> nan
              in
              Some (r.name, r.label, v))
          (Metrics.snapshot Metrics.default)
      in
      Alcotest.(check (list (triple string string (float 0.0))))
        "three label-less rows: sums and the larger high-water"
        [
          ("events_processed", "", 13.0);
          ("pending_high_water", "", 8.0);
          ("timers_cancelled", "", 8.0);
        ]
        rows)

let tests =
  [
    Alcotest.test_case "registry counters and gauges" `Quick
      registry_counters_gauges;
    Alcotest.test_case "registration is idempotent" `Quick
      registry_idempotent_registration;
    Alcotest.test_case "disabled registry is a no-op" `Quick
      registry_disabled_is_noop;
    Alcotest.test_case "snapshot is deterministic" `Quick
      registry_snapshot_deterministic;
    Alcotest.test_case "reset keeps handles live" `Quick registry_reset;
    Alcotest.test_case "vector rows grow and keep counts" `Quick
      vector_rows_and_growth;
    Alcotest.test_case "vector key and row clashes raise" `Quick
      vector_kind_clashes;
    Alcotest.test_case "vector: disabled no-op, reset" `Quick
      vector_disabled_and_reset;
    QCheck_alcotest.to_alcotest registry_rows_unique;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      histogram_bucket_boundaries;
    Alcotest.test_case "histogram observations" `Quick histogram_observations;
    Alcotest.test_case "json round-trip" `Quick json_roundtrip;
    Alcotest.test_case "json rejects malformed input" `Quick
      json_rejects_malformed;
    Alcotest.test_case "chrome trace valid and sorted" `Quick
      chrome_json_valid_and_roundtrips;
    Alcotest.test_case "chrome ts round-trips exactly" `Quick
      chrome_ts_roundtrip_exact;
    Alcotest.test_case "export metrics JSON shape" `Quick export_shapes;
    Alcotest.test_case "engine feeds the default registry" `Quick
      engine_default_registry;
    Alcotest.test_case "engines share the label-less rows" `Quick
      engines_share_label_less_rows;
    Alcotest.test_case "journal disabled flag and corr minting" `Quick
      journal_disabled_and_corr;
    Alcotest.test_case "journal ring bounded eviction" `Quick
      journal_ring_eviction;
    Alcotest.test_case "journal NDJSON round-trips every event kind" `Quick
      journal_ndjson_roundtrip;
    Alcotest.test_case "journal writer streams past eviction" `Quick
      journal_writer_streams_past_eviction;
    Alcotest.test_case "shard journal keeps the whole run" `Quick
      shard_journal_keeps_whole_run;
    Alcotest.test_case "shard journal clear keeps its id base" `Quick
      shard_journal_clear_keeps_corr_base;
    Alcotest.test_case "journal NDJSON tolerates unknown/blank lines" `Quick
      journal_ndjson_tolerates_unknown_and_blank;
    Alcotest.test_case "timeseries sampling and CSV round-trip" `Quick
      timeseries_sampling_roundtrip;
    Alcotest.test_case "timeseries late series pad with nan" `Quick
      timeseries_late_series_nan_padding;
    Alcotest.test_case "inspect rebuilds control loops" `Quick
      inspect_rebuilds_loops;
    Alcotest.test_case "inspect pairs true/est columns" `Quick
      inspect_estimate_errors;
    Alcotest.test_case "cpu samples round-trip via JSON" `Quick
      cpu_samples_roundtrip;
    Alcotest.test_case "cpu samples reject non-snapshot" `Quick
      cpu_samples_reject_non_snapshot;
    Alcotest.test_case "cpu samples render by share" `Quick
      cpu_samples_render;
    QCheck_alcotest.to_alcotest json_print_parse_id;
  ]
