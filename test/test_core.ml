(* Tests for the Planck umbrella API: testbed construction across
   topologies, scheme deployment, and experiment bookkeeping. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate

(* the buffer-audited wrapper, before [open Planck] shadows [Testbed] *)
let case = Testbed.case

open Planck

let testbed_variants () =
  let ft = Testbed.create (Testbed.paper_fat_tree ()) in
  Alcotest.(check int) "fat-tree hosts" 16 (Testbed.host_count ft);
  let opt = Testbed.create (Testbed.optimal ~hosts:8 ()) in
  Alcotest.(check int) "optimal hosts" 8 (Testbed.host_count opt);
  let jf =
    Testbed.create
      {
        Testbed.default_spec with
        Testbed.topology =
          Testbed.Jellyfish
            {
              Planck_topology.Jellyfish.num_switches = 8;
              switch_degree = 3;
              hosts_per_switch = 2;
            };
      }
  in
  Alcotest.(check int) "jellyfish hosts" 16 (Testbed.host_count jf);
  Alcotest.(check (float 1.0)) "link rate" 10.0
    (Rate.to_gbps (Testbed.link_rate ft))

let scheme_names () =
  Alcotest.(check string) "static" "Static" (Scheme.name Scheme.Static);
  Alcotest.(check string) "planck" "PlanckTE"
    (Scheme.name Scheme.planck_te_default);
  Alcotest.(check string) "poll 1s" "Poll-1s" (Scheme.name Scheme.poll_1s);
  Alcotest.(check string) "poll 100ms" "Poll-0.1s"
    (Scheme.name Scheme.poll_100ms)

let scheme_deployment_shapes () =
  let tb = Testbed.create (Testbed.paper_fat_tree ()) in
  let static = Scheme.deploy tb Scheme.Static in
  Alcotest.(check bool) "static has no controller" true
    (static.Scheme.controller = None && static.Scheme.poller = None);
  let tb2 = Testbed.create (Testbed.paper_fat_tree ()) in
  let te = Scheme.deploy tb2 Scheme.planck_te_default in
  Alcotest.(check bool) "planck has controller and te" true
    (te.Scheme.controller <> None && te.Scheme.te <> None);
  let tb3 = Testbed.create (Testbed.paper_fat_tree ()) in
  let poll = Scheme.deploy tb3 Scheme.poll_100ms in
  Alcotest.(check bool) "poll has poller only" true
    (poll.Scheme.poller <> None && poll.Scheme.controller = None)

let workload_names () =
  Alcotest.(check string) "stride" "stride(8)"
    (Experiment.workload_name (Experiment.Stride 8));
  Alcotest.(check string) "shuffle" "shuffle"
    (Experiment.workload_name (Experiment.Shuffle { concurrency = 2 }))

let experiment_bookkeeping () =
  let summary =
    Experiment.run
      ~spec:(Testbed.optimal ~hosts:8 ())
      ~scheme:Scheme.Static ~workload:(Experiment.Stride 4)
      ~size:(2 * 1024 * 1024) ~horizon:(Time.s 5) ()
  in
  Alcotest.(check int) "one flow per host" 8
    (List.length summary.Experiment.flows);
  Alcotest.(check bool) "completed" true summary.Experiment.all_completed;
  Alcotest.(check int) "no reroutes under static" 0
    summary.Experiment.reroutes;
  Alcotest.(check bool) "no shuffle data" true
    (summary.Experiment.host_done = None);
  Alcotest.(check bool) "avg sane" true
    (summary.Experiment.avg_goodput_gbps > 1.0
    && summary.Experiment.avg_goodput_gbps <= 10.0)

let scalability_guards () =
  Alcotest.check_raises "odd k" (Invalid_argument "x") (fun () ->
      try ignore (Scalability.fat_tree_plan ~k:7)
      with Invalid_argument _ -> raise (Invalid_argument "x"));
  Alcotest.check_raises "bad hosts per switch" (Invalid_argument "x")
    (fun () ->
      try
        ignore
          (Scalability.jellyfish_plan ~ports:8 ~hosts_per_switch:8 ~hosts:100)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let tests =
  [
    case "testbed variants" `Quick testbed_variants;
    case "scheme names" `Quick scheme_names;
    case "scheme deployment shapes" `Quick
      scheme_deployment_shapes;
    case "workload names" `Quick workload_names;
    case "experiment bookkeeping" `Quick experiment_bookkeeping;
    case "scalability guards" `Quick scalability_guards;
  ]
