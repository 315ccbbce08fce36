module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Engine = Planck_netsim.Engine
module Flow_key = Planck_packet.Flow_key
module Mac = Planck_packet.Mac
module Ipv4_addr = Planck_packet.Ipv4_addr
module Routing = Planck_topology.Routing
module Control_channel = Planck_openflow.Control_channel
module Collector = Planck_collector.Collector
module Metrics = Planck_telemetry.Metrics
module Journal = Planck_telemetry.Journal
module Packet = Planck_packet.Packet

let log = Logs.Src.create "planck.te" ~doc:"Traffic-engineering application"

module Log = (val Logs.src_log log)

type config = {
  congestion_threshold : float;
  flow_timeout : Time.t;
  reroute_cooldown : Time.t;
  mechanism : Reroute.mechanism;
}

let default_config =
  {
    congestion_threshold = 0.5;
    flow_timeout = Time.ms 3;
    reroute_cooldown = Time.ms 3;
    mechanism = Reroute.Arp;
  }

type t = {
  engine : Engine.t;
  routing : Routing.t;
  channel : Control_channel.t;
  link_rate : Rate.t;
  config : config;
  view : Net_view.t;
  mutable notifications : int;
  mutable reroutes : int;
  mutable reroute_hooks :
    (Time.t -> Flow_key.t -> old_mac:Mac.t -> new_mac:Mac.t -> unit) list;
  (* Rerouted flows whose new path has not yet been observed: flow ->
     (correlation id, expected MAC, armed). The effective-watch taps
     installed in [create] (journal only) close each loop at the
     collector vantage point, matching how Fig 16 measures response
     latency. [armed] flips when the install lands: before that, a
     sample carrying the new MAC is provably a stale frame from the
     monitor-queue backlog (possible when a flow flaps back to a
     previous route), not the reroute taking effect. *)
  pending_effective : (int * Mac.t * bool ref) Flow_key.Table.t;
  tel_notifications : Metrics.counter;
  tel_reroutes : Metrics.counter;
}

(* greedy_route_flow of Algorithm 1: consider the flow's current path
   with the flow itself removed, then every alternate; pick the path
   with the largest expected bottleneck capacity. *)
let greedy_route_flow t ~corr flow =
  let now = Engine.now t.engine in
  if now >= flow.Net_view.no_reroute_until then begin
    match Ipv4_addr.host_id flow.Net_view.key.Flow_key.dst_ip with
    | None -> ()
    | Some dst ->
        let bottleneck_of mac =
          match Routing.tree t.routing mac with
          | None -> neg_infinity
          | Some _ -> (
              match Ipv4_addr.host_id flow.Net_view.key.Flow_key.src_ip with
              | None -> neg_infinity
              | Some src -> (
                  match Routing.path t.routing ~src ~dst_mac:mac with
                  | exception Invalid_argument _ -> neg_infinity
                  | hops ->
                      Net_view.bottleneck t.view ~capacity:t.link_rate
                        ~exclude:flow
                        ~links:(Routing.links_of_path hops)))
        in
        let current_mac = flow.Net_view.dst_mac in
        let best_mac = ref current_mac in
        let best_btlneck = ref (bottleneck_of current_mac) in
        for alt = 0 to Routing.alts t.routing - 1 do
          let mac = Routing.mac_for t.routing ~dst ~alt in
          if not (Mac.equal mac current_mac) then begin
            let btlneck = bottleneck_of mac in
            if btlneck > !best_btlneck then begin
              best_mac := mac;
              best_btlneck := btlneck
            end
          end
        done;
        if not (Mac.equal !best_mac current_mac) then begin
          Log.debug (fun m ->
              m "reroute %a from %a to %a (bottleneck %.2f Gbps)"
                Flow_key.pp flow.Net_view.key Mac.pp current_mac Mac.pp
                !best_mac (!best_btlneck /. 1e9));
          t.reroutes <- t.reroutes + 1;
          Metrics.Counter.incr t.tel_reroutes;
          flow.Net_view.no_reroute_until <- now + t.config.reroute_cooldown;
          Net_view.set_route t.view flow !best_mac;
          let journal = Engine.journal t.engine in
          let on_install =
            if Journal.enabled journal then begin
              let key = flow.Net_view.key in
              let label = Format.asprintf "%a" Flow_key.pp key in
              Journal.record journal ~ts:now ~corr
                (Journal.Reroute_decision
                   {
                     flow = label;
                     old_mac = Mac.to_string current_mac;
                     new_mac = Mac.to_string !best_mac;
                     bottleneck_gbps = !best_btlneck /. 1e9;
                     mechanism = Reroute.mechanism_name t.config.mechanism;
                   });
              let armed = ref false in
              Flow_key.Table.replace t.pending_effective key
                (corr, !best_mac, armed);
              Some
                (fun () ->
                  armed := true;
                  Journal.record journal ~ts:(Engine.now t.engine) ~corr
                    (Journal.Reroute_install
                       {
                         flow = label;
                         mechanism =
                           Reroute.mechanism_name t.config.mechanism;
                       }))
            end
            else None
          in
          Reroute.apply ?on_install t.config.mechanism ~channel:t.channel
            ~routing:t.routing ~key:flow.Net_view.key ~new_mac:!best_mac;
          List.iter
            (fun hook ->
              hook now flow.Net_view.key ~old_mac:current_mac
                ~new_mac:!best_mac)
            t.reroute_hooks
        end
  end

(* process_cong_ntfy of Algorithm 1. *)
let process t (event : Collector.congestion) =
  Log.debug (fun m ->
      m "congestion notification: switch %d port %d at %.2f Gbps (%d flows)"
        event.Collector.switch event.Collector.port
        (event.Collector.utilization /. 1e9)
        (List.length event.Collector.flows));
  t.notifications <- t.notifications + 1;
  Metrics.Counter.incr t.tel_notifications;
  let now = Engine.now t.engine in
  let journal = Engine.journal t.engine in
  if Journal.enabled journal then
    Journal.record journal ~ts:now ~corr:event.Collector.corr
      (Journal.Controller_notified
         { switch = event.Collector.switch; port = event.Collector.port });
  let flows =
    List.map
      (fun (key, rate, dst_mac) ->
        Net_view.observe t.view ~now ~key ~rate ~dst_mac)
      event.Collector.flows
  in
  Net_view.expire t.view ~now;
  (* Smallest flows first: moving a small flow decongests the link at
     the least reordering cost to established traffic (and makes the
     greedy placement deterministic). *)
  let flows =
    List.sort (fun a b -> Float.compare a.Net_view.rate b.Net_view.rate) flows
  in
  List.iter (greedy_route_flow t ~corr:event.Collector.corr) flows

let create engine ~routing ~channel ~collectors ~link_rate
    ?(config = default_config) () =
  let t =
    {
      engine;
      routing;
      channel;
      link_rate;
      config;
      view = Net_view.create routing ~flow_timeout:config.flow_timeout;
      notifications = 0;
      reroutes = 0;
      reroute_hooks = [];
      pending_effective = Flow_key.Table.create 16;
      tel_notifications =
        Metrics.counter ~subsystem:"te" ~name:"notifications" ();
      tel_reroutes = Metrics.counter ~subsystem:"te" ~name:"reroutes" ();
    }
  in
  List.iter
    (fun collector ->
      Collector.subscribe_congestion collector
        ~threshold:config.congestion_threshold (fun event ->
          (* Notification crosses the control network. *)
          Control_channel.send t.channel (fun () -> process t event)))
    collectors;
  (* Effective-watch: close each control loop when any collector first
     samples a rerouted flow carrying its new MAC — the Fig 16 vantage
     point (so the stamp includes monitor-port buffering). The watch
     only feeds the journal, so it is installed only when the journal is
     already enabled at deploy time, and it decodes a frame only while
     some reroute awaits its stamp. *)
  let journal = Engine.journal engine in
  if Journal.enabled journal then
    List.iter
      (fun collector ->
        Collector.set_tap collector (fun ~rx ~arrival:_ packet ->
            if Flow_key.Table.length t.pending_effective > 0 then
              match Flow_key.of_packet packet with
              | None -> ()
              | Some key -> (
                  match Flow_key.Table.find_opt t.pending_effective key with
                  | Some (corr, mac, armed)
                    when !armed && Mac.equal (Packet.dst_mac packet) mac ->
                      Flow_key.Table.remove t.pending_effective key;
                      Journal.record journal ~ts:rx ~corr
                        (Journal.Reroute_effective
                           {
                             flow = Format.asprintf "%a" Flow_key.pp key;
                             new_mac = Mac.to_string mac;
                             switch = Collector.switch_id collector;
                           })
                  | _ -> ())))
      collectors;
  t

let notifications t = t.notifications
let reroutes t = t.reroutes
let on_reroute t hook = t.reroute_hooks <- hook :: t.reroute_hooks
