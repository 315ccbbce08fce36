module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Engine = Planck_netsim.Engine
module Switch = Planck_netsim.Switch
module Host = Planck_netsim.Host
module Fabric = Planck_topology.Fabric
module Routing = Planck_topology.Routing
module Fat_tree = Planck_topology.Fat_tree
module Single_switch = Planck_topology.Single_switch
module Jellyfish = Planck_topology.Jellyfish
module Partition = Planck_topology.Partition
module Shard = Planck_netsim.Shard
module Endpoint = Planck_tcp.Endpoint

type topology =
  | Fat_tree of { k : int }
  | Single_switch of { hosts : int }
  | Jellyfish of Jellyfish.spec

type spec = {
  topology : topology;
  link_rate : Rate.t;
  seed : int;
  switch_config : Switch.config;
  host_stack : Host.stack;
  alts : int option;
  shards : int option;
  core_prop_delay : Time.t option;
}

let default_spec =
  {
    topology = Fat_tree { k = 4 };
    link_rate = Rate.gbps 10.0;
    seed = 1;
    switch_config = Switch.default_config;
    host_stack = Host.default_stack;
    alts = None;
    shards = None;
    core_prop_delay = None;
  }

let paper_fat_tree ?(seed = 1) () = { default_spec with seed }

let optimal ?(seed = 1) ?(hosts = 16) () =
  { default_spec with topology = Single_switch { hosts }; seed }

let microbench ?(seed = 1) ?(hosts = 16) ?(rate = Rate.gbps 10.0)
    ?(switch_config = Switch.default_config) () =
  {
    default_spec with
    topology = Single_switch { hosts };
    link_rate = rate;
    switch_config;
    seed;
  }

type t = {
  spec : spec;
  engine : Engine.t;
  fabric : Fabric.t;
  routing : Routing.t;
  endpoints : Endpoint.t array;
  prng : Prng.t;
  shard : Shard.group option;
}

let create spec =
  (* With [shards], every engine belongs to the shard group and
     [engine] is shard 0's — the group's reference clock. Everything
     below (routing, ARP, endpoints, flow starts) happens on the
     spawning domain before [Shard.run] brings up the others, which
     gives the shard domains a happens-before on all of it. *)
  let group =
    Option.map (fun n -> Shard.create ~shards:n) spec.shards
  in
  let engine =
    match group with None -> Engine.create () | Some g -> Shard.engine g 0
  in
  let sharding_of partition =
    Option.map
      (fun g ->
        {
          Fabric.group = g;
          shard_of_switch = partition.Partition.of_switch;
          shard_of_host = partition.Partition.of_host;
        })
      group
  in
  let prng = Prng.create ~seed:spec.seed in
  let fabric, routing =
    match spec.topology with
    | Fat_tree { k } ->
        let sharding =
          sharding_of
            (Partition.fat_tree (Fat_tree.shape ~k)
               ~shards:(Option.value spec.shards ~default:1))
        in
        let fabric, shape =
          Fat_tree.build engine ~k ~switch_config:spec.switch_config
            ~link_rate:spec.link_rate ~host_stack:spec.host_stack ?sharding
            ?core_prop_delay:spec.core_prop_delay
            ~prng:(Prng.split prng) ()
        in
        let alts =
          match spec.alts with
          | Some alts -> min alts (Fat_tree.max_alts shape)
          | None -> Fat_tree.max_alts shape
        in
        ( fabric,
          Routing.create fabric ~alts ~out_port:(Fat_tree.out_port shape) )
    | Single_switch { hosts } ->
        let sharding =
          sharding_of
            (Partition.single ~shards:(Option.value spec.shards ~default:1))
        in
        let fabric =
          Single_switch.build engine ~hosts ~switch_config:spec.switch_config
            ~link_rate:spec.link_rate ~host_stack:spec.host_stack ?sharding
            ~prng:(Prng.split prng) ()
        in
        ( fabric,
          Routing.create fabric
            ~alts:(Option.value ~default:1 spec.alts)
            ~out_port:Single_switch.out_port )
    | Jellyfish jf_spec ->
        let sharding =
          sharding_of
            (Partition.jellyfish jf_spec
               ~shards:(Option.value spec.shards ~default:1))
        in
        let fabric =
          Jellyfish.build engine ~spec:jf_spec
            ~switch_config:spec.switch_config ~link_rate:spec.link_rate
            ~host_stack:spec.host_stack ?sharding ~prng:(Prng.split prng) ()
        in
        ( fabric,
          let alts = Option.value ~default:4 spec.alts in
          Routing.create fabric ~alts
            ~out_port:(Jellyfish.routes fabric ~alts) )
  in
  Routing.install routing;
  Fabric.populate_arp fabric;
  let endpoints =
    Array.init (Fabric.host_count fabric) (fun i ->
        Endpoint.create (Fabric.host fabric i))
  in
  (* Log messages during this testbed's lifetime are stamped with its
     simulated clock (the newest testbed wins when several coexist,
     which only happens in tests). *)
  Planck_telemetry.Reporter.set_clock (Some (fun () -> Engine.now engine));
  { spec; engine; fabric; routing; endpoints; prng; shard = group }

let host_count t = Fabric.host_count t.fabric
let link_rate t = t.spec.link_rate
