(* Workload generator and runner tests. *)

module Time = Planck_util.Time
module Prng = Planck_util.Prng
module Generate = Planck_workloads.Generate
module Runner = Planck_workloads.Runner
module Fat_tree = Planck_topology.Fat_tree

let stride_shape () =
  let pairs = Generate.stride ~hosts:16 ~k:8 in
  Alcotest.(check int) "one flow per host" 16 (List.length pairs);
  List.iter
    (fun ({ src; dst; _ } : Generate.pair) ->
      Alcotest.(check int) "dst = src+8 mod 16" ((src + 8) mod 16) dst)
    pairs

let stride_rejects_identity () =
  Alcotest.check_raises "k=0" (Invalid_argument "x") (fun () ->
      try ignore (Generate.stride ~hosts:8 ~k:16)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let bijection_properties_qcheck =
  QCheck.Test.make ~name:"random bijection is a derangement" ~count:100
    QCheck.(int_range 2 64)
    (fun hosts ->
      let pairs =
        Generate.random_bijection (Prng.create ~seed:hosts) ~hosts
      in
      let dsts = List.map (fun (p : Generate.pair) -> p.dst) pairs in
      List.sort compare dsts = List.init hosts Fun.id
      && List.for_all (fun (p : Generate.pair) -> p.src <> p.dst) pairs)

let random_no_self_qcheck =
  QCheck.Test.make ~name:"random workload never sends to self" ~count:100
    QCheck.(int_range 2 64)
    (fun hosts ->
      List.for_all
        (fun (p : Generate.pair) -> p.src <> p.dst)
        (Generate.random_uniform (Prng.create ~seed:hosts) ~hosts))

let staggered_probabilities () =
  let shape = Fat_tree.shape ~k:4 in
  let prng = Prng.create ~seed:99 in
  let same_edge = ref 0 and same_pod = ref 0 and other = ref 0 in
  for _ = 1 to 300 do
    List.iter
      (fun ({ src; dst; _ } : Generate.pair) ->
        if src / 2 = dst / 2 then incr same_edge
        else if src / 4 = dst / 4 then incr same_pod
        else incr other)
      (Generate.staggered_prob prng ~shape ~p_edge:0.3 ~p_pod:0.3)
  done;
  let total = float_of_int (!same_edge + !same_pod + !other) in
  let frac x = float_of_int !x /. total in
  Alcotest.(check bool) "edge fraction near 0.3" true
    (abs_float (frac same_edge -. 0.3) < 0.05);
  Alcotest.(check bool) "pod fraction near 0.3" true
    (abs_float (frac same_pod -. 0.3) < 0.05)

let shuffle_orders_cover_everyone () =
  let orders = Generate.shuffle_orders (Prng.create ~seed:5) ~hosts:8 in
  Array.iteri
    (fun h order ->
      Alcotest.(check (list int))
        (Printf.sprintf "host %d visits all others" h)
        (List.filter (fun p -> p <> h) (List.init 8 Fun.id))
        (List.sort compare (Array.to_list order)))
    orders

let runner_pairs_results () =
  let tb = Testbed.single_switch ~hosts:4 () in
  let results =
    Runner.run_pairs tb.Testbed.engine ~endpoints:tb.Testbed.endpoints
      ~pairs:[ { Generate.src = 0; dst = 1 }; { Generate.src = 2; dst = 3 } ]
      ~size:(2 * 1024 * 1024) ~horizon:(Time.s 1) ()
  in
  Alcotest.(check int) "two results" 2 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool) "completed" true r.Runner.completed;
      Alcotest.(check bool) "goodput present" true (r.Runner.goodput <> None))
    results;
  Alcotest.(check bool) "average in range" true
    (let avg = Runner.average_goodput_gbps results in
     avg > 3.0 && avg < 10.0)

let runner_horizon_truncates () =
  let tb = Testbed.single_switch ~hosts:4 () in
  let results =
    Runner.run_pairs tb.Testbed.engine ~endpoints:tb.Testbed.endpoints
      ~pairs:[ { Generate.src = 0; dst = 1 } ]
      ~size:(500 * 1024 * 1024) ~horizon:(Time.ms 10) ()
  in
  let r = List.hd results in
  Alcotest.(check bool) "not completed at horizon" false r.Runner.completed;
  Alcotest.(check bool) "no finish time" true (r.Runner.finish_time = None)

let runner_shuffle_completes () =
  let tb = Testbed.single_switch ~hosts:4 () in
  let orders = Generate.shuffle_orders (Prng.create ~seed:3) ~hosts:4 in
  let result =
    Runner.run_shuffle tb.Testbed.engine ~endpoints:tb.Testbed.endpoints
      ~orders ~concurrency:2 ~size:(512 * 1024) ~horizon:(Time.s 5) ()
  in
  Alcotest.(check int) "4 hosts x 3 peers flows" 12
    (List.length result.Runner.flows);
  Array.iteri
    (fun h done_at ->
      Alcotest.(check bool) (Printf.sprintf "host %d done" h) true
        (done_at <> None))
    result.Runner.host_done;
  List.iter
    (fun r -> Alcotest.(check bool) "flow completed" true r.Runner.completed)
    result.Runner.flows

let churn_trace_shape () =
  let spec = { Generate.default_churn with Generate.flows = 500 } in
  let arrivals = Generate.churn (Prng.create ~seed:7) ~hosts:16 ~spec in
  Alcotest.(check int) "500 arrivals" 500 (List.length arrivals);
  let last = ref Time.zero in
  let elephants = ref 0 in
  List.iter
    (fun (a : Generate.arrival) ->
      Alcotest.(check bool) "arrival times monotone" true (a.at >= !last);
      last := a.at;
      Alcotest.(check bool) "src in range" true (a.src >= 0 && a.src < 16);
      Alcotest.(check bool) "dst in range, never self" true
        (a.dst >= 0 && a.dst < 16 && a.dst <> a.src);
      if a.size = spec.Generate.elephant_bytes then incr elephants
      else
        Alcotest.(check int) "mouse size" spec.Generate.mouse_bytes a.size)
    arrivals;
  Alcotest.(check int) "every 50th flow is an elephant" 10 !elephants;
  let again = Generate.churn (Prng.create ~seed:7) ~hosts:16 ~spec in
  Alcotest.(check bool) "same seed reproduces the trace" true
    (arrivals = again);
  let other = Generate.churn (Prng.create ~seed:8) ~hosts:16 ~spec in
  Alcotest.(check bool) "different seed differs" true (arrivals <> other)

let runner_churn_completes () =
  let tb = Testbed.single_switch ~hosts:4 () in
  let spec =
    {
      Generate.default_churn with
      Generate.flows = 40;
      mean_interarrival = Time.us 200;
    }
  in
  let arrivals = Generate.churn (Prng.create ~seed:5) ~hosts:4 ~spec in
  let results =
    Runner.run_churn tb.Testbed.engine ~endpoints:tb.Testbed.endpoints
      ~arrivals ~horizon:(Time.s 10) ()
  in
  Alcotest.(check int) "every arrival launched" 40 (List.length results);
  List.iter
    (fun r -> Alcotest.(check bool) "flow completed" true r.Runner.completed)
    results

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Testbed.case "stride shape" `Quick stride_shape;
    Testbed.case "stride rejects identity mapping" `Quick
      stride_rejects_identity;
    qtest bijection_properties_qcheck;
    qtest random_no_self_qcheck;
    Testbed.case "staggered probabilities" `Quick staggered_probabilities;
    Testbed.case "shuffle orders cover everyone" `Quick
      shuffle_orders_cover_everyone;
    Testbed.case "runner pair results" `Quick runner_pairs_results;
    Testbed.case "runner horizon truncation" `Quick
      runner_horizon_truncates;
    Testbed.case "runner shuffle bookkeeping" `Quick
      runner_shuffle_completes;
    Testbed.case "churn trace shape + determinism" `Quick
      churn_trace_shape;
    Testbed.case "runner churn completes" `Quick runner_churn_completes;
  ]
