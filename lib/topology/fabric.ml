module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Engine = Planck_netsim.Engine
module Switch = Planck_netsim.Switch
module Host = Planck_netsim.Host
module Wiring = Planck_netsim.Wiring
module Shard = Planck_netsim.Shard

type peer =
  | To_host of int
  | To_switch of int * int
  | To_monitor
  | Unwired

type sharding = {
  group : Shard.group;
  shard_of_switch : int -> int;
  shard_of_host : int -> int;
}

type t = {
  engine : Engine.t;
  switches : Switch.t array;
  hosts : Host.t array;
  adjacency : peer array array; (* adjacency.(switch).(port) *)
  host_attach : (int * int) array;
  monitors : int option array;
  link_rate : Rate.t;
  prop_delay : Time.t;
  switch_ports : int;
  sharding : sharding option;
}

let build engine ~switch_ports ~switch_config ~link_rate
    ?(prop_delay = Wiring.default_prop_delay) ?host_stack ?sharding
    ~num_switches ~num_hosts ~prng () =
  let switch_engine i =
    match sharding with
    | None -> engine
    | Some s -> Shard.engine s.group (s.shard_of_switch i)
  in
  let host_engine i =
    match sharding with
    | None -> engine
    | Some s -> Shard.engine s.group (s.shard_of_host i)
  in
  let switches =
    Array.init num_switches (fun i ->
        Switch.create (switch_engine i)
          ~name:(Printf.sprintf "s%d" i)
          ~ports:switch_ports ~config:switch_config
          ~prng:(Prng.split prng) ())
  in
  let hosts =
    Array.init num_hosts (fun i ->
        Host.create (host_engine i) ~id:i ?stack:host_stack
          ~prng:(Prng.split prng) ())
  in
  {
    engine;
    switches;
    hosts;
    adjacency =
      Array.init num_switches (fun _ -> Array.make switch_ports Unwired);
    host_attach = Array.make num_hosts (-1, -1);
    monitors = Array.make num_switches None;
    link_rate;
    prop_delay;
    switch_ports;
    sharding;
  }

let shard_of_switch t sw =
  match t.sharding with None -> 0 | Some s -> s.shard_of_switch sw

let shard_of_host t h =
  match t.sharding with None -> 0 | Some s -> s.shard_of_host h

let shard_group t = Option.map (fun s -> s.group) t.sharding

let check_unwired t ~switch ~port =
  match t.adjacency.(switch).(port) with
  | Unwired -> ()
  | To_host _ | To_switch _ | To_monitor ->
      invalid_arg
        (Printf.sprintf "Fabric: switch %d port %d already wired" switch port)

let wire_host t ~host ~switch ~port =
  check_unwired t ~switch ~port;
  if shard_of_host t host <> shard_of_switch t switch then
    invalid_arg
      (Printf.sprintf
         "Fabric.wire_host: host %d (shard %d) and switch %d (shard %d) \
          must share a shard"
         host (shard_of_host t host) switch (shard_of_switch t switch));
  Wiring.host_to_switch t.hosts.(host) t.switches.(switch) ~port
    ~rate:t.link_rate ~prop_delay:t.prop_delay;
  t.adjacency.(switch).(port) <- To_host host;
  t.host_attach.(host) <- (switch, port)

let wire_switches ?prop_delay t ~a ~port_a ~b ~port_b =
  check_unwired t ~switch:a ~port:port_a;
  check_unwired t ~switch:b ~port:port_b;
  let prop_delay = Option.value prop_delay ~default:t.prop_delay in
  let cross =
    match t.sharding with
    | None -> None
    | Some s ->
        let sa = s.shard_of_switch a and sb = s.shard_of_switch b in
        if sa = sb then None else Some (s.group, sa, sb)
  in
  (match cross with
  | None ->
      Wiring.switch_to_switch t.switches.(a) ~port_a t.switches.(b) ~port_b
        ~rate:t.link_rate ~prop_delay
  | Some (group, sa, sb) ->
      let sw_a = t.switches.(a) and sw_b = t.switches.(b) in
      let handoff_ab =
        Shard.channel group ~src:sa ~dst:sb ~prop_delay
          ~deliver:(fun pkt -> Switch.ingress sw_b ~port:port_b pkt)
      in
      let handoff_ba =
        Shard.channel group ~src:sb ~dst:sa ~prop_delay
          ~deliver:(fun pkt -> Switch.ingress sw_a ~port:port_a pkt)
      in
      Wiring.switch_to_switch_remote sw_a ~port_a sw_b ~port_b
        ~rate:t.link_rate ~prop_delay ~handoff_ab ~handoff_ba);
  t.adjacency.(a).(port_a) <- To_switch (b, port_b);
  t.adjacency.(b).(port_b) <- To_switch (a, port_a)

let reserve_monitor t ~switch ~port =
  check_unwired t ~switch ~port;
  t.adjacency.(switch).(port) <- To_monitor;
  t.monitors.(switch) <- Some port

let switch_count t = Array.length t.switches
let host_count t = Array.length t.hosts
let switch t i = t.switches.(i)
let host t i = t.hosts.(i)
let hosts t = t.hosts
let link_rate t = t.link_rate
let switch_ports t = t.switch_ports
let peer t ~switch ~port = t.adjacency.(switch).(port)

let host_attachment t ~host =
  let attach = t.host_attach.(host) in
  if fst attach < 0 then
    invalid_arg (Printf.sprintf "Fabric.host_attachment: host %d unwired" host);
  attach

let monitor_port t ~switch = t.monitors.(switch)

let data_ports t ~switch =
  let ports = ref [] in
  Array.iteri
    (fun port -> function
      | To_host _ | To_switch _ -> ports := port :: !ports
      | To_monitor | Unwired -> ())
    t.adjacency.(switch);
  List.rev !ports

let attach_sink t ~switch ~deliver =
  match t.monitors.(switch) with
  | None ->
      invalid_arg
        (Printf.sprintf "Fabric.attach_sink: switch %d has no monitor port"
           switch)
  | Some port ->
      Switch.connect t.switches.(switch) ~port ~rate:t.link_rate
        ~prop_delay:t.prop_delay ~deliver ();
      Switch.set_mirror t.switches.(switch) ~monitor:port
        ~mirrored:(data_ports t ~switch)

let populate_arp t =
  let hosts = Array.length t.hosts in
  Array.iter (fun h -> Host.set_neighbours h ~hosts) t.hosts
