let build engine ~hosts ~switch_config ~link_rate ?host_stack ?sharding ~prng () =
  let fabric =
    Fabric.build engine ~switch_ports:(hosts + 1) ~switch_config ~link_rate
      ?host_stack ?sharding ~num_switches:1 ~num_hosts:hosts ~prng ()
  in
  for h = 0 to hosts - 1 do
    Fabric.wire_host fabric ~host:h ~switch:0 ~port:h
  done;
  Fabric.reserve_monitor fabric ~switch:0 ~port:hosts;
  fabric

let out_port ~hosts ~alts ~switch:_ =
  let lookup mac = Routing.dst_of ~hosts ~alts mac in
  lookup
