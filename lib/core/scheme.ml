module Time = Planck_util.Time
module Prng = Planck_util.Prng
module Te = Planck_controller.Te
module Controller = Planck_controller.Controller
module Poller = Planck_baselines.Poller
module Sflow_te_impl = Planck_baselines.Sflow_te
module Control_channel = Planck_openflow.Control_channel
module Collector_impl = Planck_collector.Collector
module Tiered_table = Planck_sketch.Tiered_table

type flow_table = Exact | Tiered of Tiered_table.config

let tiered_default = Tiered Tiered_table.default_config

let flow_table_name = function Exact -> "exact" | Tiered _ -> "tiered"

let collector_config_of_flow_table = function
  | Exact -> None
  | Tiered config ->
      Some
        {
          Collector_impl.default_config with
          Collector_impl.table = Tiered_table.table_kind ~config ();
        }

type t =
  | Static
  | Planck_te of Te.config
  | Poll of Poller.config
  | Sflow_te of Sflow_te_impl.config

let planck_te_default = Planck_te Te.default_config
let poll_1s = Poll Poller.default_config

let poll_100ms =
  Poll { Poller.default_config with Poller.period = Time.ms 100 }

let sflow_te_default = Sflow_te Sflow_te_impl.default_config

let name = function
  | Static -> "Static"
  | Planck_te _ -> "PlanckTE"
  | Poll { Poller.period; _ } ->
      Printf.sprintf "Poll-%gs" (Time.to_float_s period)
  | Sflow_te _ -> "sFlowTE"

type deployed = {
  scheme : t;
  controller : Controller.t option;
  te : Te.t option;
  poller : Poller.t option;
  sflow_te : Sflow_te_impl.t option;
}

(* The control planes (controller, pollers, control channel) are built
   on the reference engine and read collector state across the whole
   fabric, so they only compose with sharding when everything lives on
   shard 0. *)
let shard_refusal ~shards = function
  | (Planck_te _ | Poll _ | Sflow_te _) when shards > 1 ->
      Some
        "control-plane schemes are single-shard; run them with --shards 1 \
         (or use the static scheme)"
  | Static | Planck_te _ | Poll _ | Sflow_te _ -> None

let deploy ?(flow_table = Exact) (testbed : Testbed.t) scheme =
  Option.iter
    (fun g ->
      Option.iter
        (fun msg -> invalid_arg ("Scheme.deploy: " ^ msg))
        (shard_refusal ~shards:(Planck_netsim.Shard.shards g) scheme))
    testbed.Testbed.shard;
  match scheme with
  | Static ->
      { scheme; controller = None; te = None; poller = None; sflow_te = None }
  | Planck_te config ->
      let controller =
        Controller.create testbed.Testbed.engine
          ~routing:testbed.Testbed.routing
          ~link_rate:(Testbed.link_rate testbed)
          ?collector_config:(collector_config_of_flow_table flow_table)
          ~prng:(Prng.split testbed.Testbed.prng)
          ()
      in
      let te = Controller.start_te controller ~config () in
      {
        scheme;
        controller = Some controller;
        te = Some te;
        poller = None;
        sflow_te = None;
      }
  | Poll config ->
      let channel =
        Control_channel.create testbed.Testbed.engine
          ~prng:(Prng.split testbed.Testbed.prng)
          ()
      in
      let poller =
        Poller.create testbed.Testbed.engine ~routing:testbed.Testbed.routing
          ~channel
          ~link_rate:(Testbed.link_rate testbed)
          ~config ()
      in
      {
        scheme;
        controller = None;
        te = None;
        poller = Some poller;
        sflow_te = None;
      }
  | Sflow_te config ->
      let channel =
        Control_channel.create testbed.Testbed.engine
          ~prng:(Prng.split testbed.Testbed.prng)
          ()
      in
      let sflow_te =
        Sflow_te_impl.create testbed.Testbed.engine
          ~routing:testbed.Testbed.routing ~channel
          ~link_rate:(Testbed.link_rate testbed)
          ~config
          ~prng:(Prng.split testbed.Testbed.prng)
          ()
      in
      {
        scheme;
        controller = None;
        te = None;
        poller = None;
        sflow_te = Some sflow_te;
      }

let reroutes deployed =
  match (deployed.te, deployed.poller, deployed.sflow_te) with
  | Some te, _, _ -> Te.reroutes te
  | None, Some poller, _ -> Poller.reroutes poller
  | None, None, Some s -> Sflow_te_impl.reroutes s
  | None, None, None -> 0
