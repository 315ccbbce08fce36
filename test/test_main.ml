let () =
  Run_suites.run "planck"
    [
      ("util", Test_util.tests);
      ("telemetry", Test_telemetry.tests);
      ("bench-gate", Test_gate.tests);
      ("packet", Test_packet.tests);
      ("netsim", Test_netsim.tests);
      ("tcp", Test_tcp.tests);
      ("tcp-internals", Test_tcp_internals.tests);
      ("topology", Test_topology.tests);
      ("collector", Test_collector.tests);
      ("sketch", Test_sketch.tests);
      ("controller", Test_controller.tests);
      ("sflow", Test_sflow.tests);
      ("openflow", Test_openflow.tests);
      ("workloads", Test_workloads.tests);
      ("extensions", Test_extensions.tests);
      ("core", Test_core.tests);
      ("invariants", Test_invariants.tests);
      ("shard", Test_shard.tests);
      ("placement", Test_placement.tests);
      ("smoke", Test_smoke.tests);
    ]
