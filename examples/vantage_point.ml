(* Vantage-point monitoring (paper §6.1): asked to capture, the
   collector retains a ring of the newest samples and dumps them as a
   tcpdump-compatible pcap — a switch-level packet capture that costs
   one port. Collectors that were never asked keep no frames.

     dune exec examples/vantage_point.exe
     tcpdump -nr /tmp/planck-vantage.pcap | head     # if available
*)

module Time = Planck_util.Time
module Engine = Planck_netsim.Engine
module Collector = Planck_collector.Collector
module Flow = Planck_tcp.Flow
open Planck

let () =
  let tb = Testbed.create (Testbed.microbench ~hosts:6 ()) in
  let collector =
    Collector.create tb.Testbed.engine ~switch:0 ~routing:tb.Testbed.routing
      ~link_rate:(Testbed.link_rate tb) ()
  in
  Collector.attach collector;
  Collector.capture collector ~capacity:8192;

  (* Mixed traffic: two bulk flows and a small one. *)
  ignore
    (Flow.start ~src:tb.Testbed.endpoints.(0) ~dst:tb.Testbed.endpoints.(3)
       ~src_port:40_001 ~dst_port:5_003 ~size:(8 * 1024 * 1024) ());
  ignore
    (Flow.start ~src:tb.Testbed.endpoints.(1) ~dst:tb.Testbed.endpoints.(4)
       ~src_port:40_002 ~dst_port:5_004 ~size:(8 * 1024 * 1024) ());
  ignore
    (Flow.start ~src:tb.Testbed.endpoints.(2) ~dst:tb.Testbed.endpoints.(5)
       ~src_port:40_003 ~dst_port:5_005 ~size:(256 * 1024) ());
  Engine.run ~until:(Time.ms 10) tb.Testbed.engine;

  let path = "/tmp/planck-vantage.pcap" in
  let pcap = Collector.vantage_pcap collector in
  let oc = open_out_bin path in
  output_string oc pcap;
  close_out oc;
  Format.printf
    "captured %d samples (%d total seen) from the switch's vantage point@."
    (Collector.vantage_count collector)
    (Collector.samples_seen collector);
  Format.printf "wrote %d bytes of pcap to %s@." (String.length pcap) path;
  Format.printf "flows currently tracked: %d@."
    (Collector.flows_tracked collector)
