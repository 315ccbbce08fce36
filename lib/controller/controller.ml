module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Engine = Planck_netsim.Engine
module Switch = Planck_netsim.Switch
module Routing = Planck_topology.Routing
module Fabric = Planck_topology.Fabric
module Control_channel = Planck_openflow.Control_channel
module Collector = Planck_collector.Collector

type t = {
  engine : Engine.t;
  routing : Routing.t;
  link_rate : Rate.t;
  channel : Control_channel.t;
  collectors : (int * Collector.t) list; (* (switch, collector) *)
}

let create engine ~routing ~link_rate ?channel_config ?collector_config ~prng
    () =
  let fabric = Routing.fabric routing in
  let channel =
    Control_channel.create engine ?config:channel_config
      ~prng:(Prng.split prng) ()
  in
  let collectors =
    List.filter_map
      (fun switch ->
        match Fabric.monitor_port fabric ~switch with
        | None -> None
        | Some _ ->
            (* Collector placement follows the shard assignment: the
               sink must process samples on the engine that owns the
               switch's monitor port (identical to [engine] when the
               fabric is unsharded). *)
            let collector =
              Collector.create
                (Switch.engine (Fabric.switch fabric switch))
                ~switch ~routing ~link_rate ?config:collector_config ()
            in
            Collector.attach collector;
            Some (switch, collector))
      (List.init (Fabric.switch_count fabric) Fun.id)
  in
  { engine; routing; link_rate; channel; collectors }

let collectors t = List.map snd t.collectors
let collector_for t ~switch = List.assoc_opt switch t.collectors

let link_utilization t ~switch ~port =
  match collector_for t ~switch with
  | None -> 0.0
  | Some collector -> Collector.link_utilization collector ~port

let flow_rate t key =
  List.fold_left
    (fun acc (_, collector) ->
      match acc with
      | Some _ -> acc
      | None -> Collector.flow_rate collector key)
    None t.collectors

let start_te t ?config () =
  Te.create t.engine ~routing:t.routing ~channel:t.channel
    ~collectors:(collectors t) ~link_rate:t.link_rate ?config ()
