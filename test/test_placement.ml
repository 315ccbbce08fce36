(* Properties of the Hedera-style placement machinery shared by the
   polling and sFlow baselines. *)

module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module FK = Planck_packet.Flow_key
module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr
module Routing = Planck_topology.Routing
module Placement = Planck_baselines.Placement

let gbps = Rate.gbps

let flow ?(rate = gbps 4.0) ~src ~dst ?(alt = 0) routing =
  {
    Placement.key =
      {
        FK.src_ip = Ip.host src;
        dst_ip = Ip.host dst;
        src_port = 10_000 + src;
        dst_port = 5_000 + dst;
        protocol = 6;
      };
    rate;
    current_mac = Routing.mac_for routing ~dst ~alt;
  }

let with_fat_tree f =
  let tb, _ = Testbed.fat_tree () in
  f tb.Testbed.routing

let demands_disjoint_flows () =
  with_fat_tree (fun routing ->
      let flows = [ flow ~src:0 ~dst:8 routing; flow ~src:1 ~dst:9 routing ] in
      let demands = Placement.estimate_demands ~link_rate:(gbps 10.0) flows in
      List.iter
        (fun (f, d) ->
          ignore f;
          Alcotest.(check (float 0.1)) "full NIC demand" 10.0 (Rate.to_gbps d))
        demands)

let demands_shared_receiver () =
  with_fat_tree (fun routing ->
      let flows = [ flow ~src:0 ~dst:8 routing; flow ~src:1 ~dst:8 routing ] in
      let demands = Placement.estimate_demands ~link_rate:(gbps 10.0) flows in
      List.iter
        (fun (_, d) ->
          Alcotest.(check (float 0.1)) "receiver-limited to half" 5.0
            (Rate.to_gbps d))
        demands)

let demands_shared_sender () =
  with_fat_tree (fun routing ->
      let flows = [ flow ~src:0 ~dst:8 routing; flow ~src:0 ~dst:9 routing ] in
      let demands = Placement.estimate_demands ~link_rate:(gbps 10.0) flows in
      List.iter
        (fun (_, d) ->
          Alcotest.(check (float 0.1)) "sender-limited to half" 5.0
            (Rate.to_gbps d))
        demands)

let gff_separates_stride_collision () =
  with_fat_tree (fun routing ->
      (* Flows 0->8 and 1->9 collide on their base routes. GFF must move
         at least one (both demand the full 10G). *)
      let flows = [ flow ~src:0 ~dst:8 routing; flow ~src:1 ~dst:9 routing ] in
      let moves = Placement.global_first_fit ~routing ~link_rate:(gbps 10.0) flows in
      Alcotest.(check bool) "at least one move" true (List.length moves >= 1))

let gff_leaves_disjoint_flows_alone () =
  with_fat_tree (fun routing ->
      (* Alternates 0 and 2 are core-disjoint: no move needed. *)
      let flows =
        [ flow ~src:0 ~dst:8 routing; flow ~src:1 ~dst:9 ~alt:2 routing ]
      in
      let moves =
        Placement.global_first_fit ~routing ~link_rate:(gbps 10.0) flows
      in
      Alcotest.(check int) "no moves" 0 (List.length moves))

let gff_moves_are_valid_qcheck =
  QCheck.Test.make
    ~name:"GFF moves are unique flows onto valid alternate routes"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let tb, _ = Testbed.fat_tree ~seed () in
      let routing = tb.Testbed.routing in
      let prng = Prng.create ~seed in
      let pairs = Planck_workloads.Generate.random_bijection prng ~hosts:16 in
      let flows =
        List.map
          (fun ({ src; dst; _ } : Planck_workloads.Generate.pair) ->
            flow ~src ~dst ~rate:(gbps 4.0) routing)
          pairs
      in
      let moves =
        Placement.global_first_fit ~routing ~link_rate:(gbps 10.0) flows
      in
      let keys = List.map (fun (f, _) -> f.Placement.key) moves in
      let unique =
        List.length keys = List.length (List.sort_uniq FK.compare keys)
      in
      unique
      && List.for_all
           (fun (f, mac) ->
             (not (Mac.equal mac f.Placement.current_mac))
             && Routing.tree routing mac <> None
             &&
             let dst = Option.get (Ip.host_id f.Placement.key.FK.dst_ip) in
             Mac.equal (fst (Mac.base_of_shadow mac)) (Mac.host dst))
           moves)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Testbed.case "demands: disjoint flows get full NIC" `Quick
      demands_disjoint_flows;
    Testbed.case "demands: shared receiver halves" `Quick
      demands_shared_receiver;
    Testbed.case "demands: shared sender halves" `Quick
      demands_shared_sender;
    Testbed.case "GFF separates a stride collision" `Quick
      gff_separates_stride_collision;
    Testbed.case "GFF leaves disjoint flows alone" `Quick
      gff_leaves_disjoint_flows_alone;
    qtest gff_moves_are_valid_qcheck;
  ]
