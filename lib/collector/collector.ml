module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Fifo = Planck_util.Fifo
module Engine = Planck_netsim.Engine
module Sink = Planck_netsim.Sink
module Packet = Planck_packet.Packet
module Headers = Planck_packet.Headers
module Flow_key = Planck_packet.Flow_key
module Mac = Planck_packet.Mac
module Ipv4_addr = Planck_packet.Ipv4_addr
module Pcap = Planck_packet.Pcap
module Routing = Planck_topology.Routing
module Fabric = Planck_topology.Fabric
module Metrics = Planck_telemetry.Metrics
module Journal = Planck_telemetry.Journal

let log = Logs.Src.create "planck.collector" ~doc:"Planck collector"

module Log = (val Logs.src_log log)

type sample = {
  rx : Time.t;
  arrival : Time.t;
  packet : Packet.t;
  key : Flow_key.t option;
  payload : int;
  seq32 : int option;
  in_port : int;
  out_port : int;
}

type flow_event_kind = Flow_started | Flow_ended

type flow_event = { time : Time.t; flow : Flow_key.t; kind : flow_event_kind }

type congestion = {
  time : Time.t;
  switch : int;
  port : int;
  utilization : Rate.t;
  capacity : Rate.t;
  flows : (Flow_key.t * Rate.t * Mac.t) list;
  corr : int;
}

(* The flow-state backend the sample path writes through. [b_table] is
   the exact tier every query (active flows, link utilization, rates)
   runs against; [b_sample] admits a data sample and returns the entry
   to account it to, or [None] when the backend keeps the flow in
   approximate state only (the sketch tier); [b_tick] is per-sample
   housekeeping (decay clocks, demotion sweeps) and must be cheap when
   nothing is due. *)
type table_backend = {
  b_table : Flow_table.t;
  b_sample :
    key:Flow_key.t ->
    now:Time.t ->
    bytes:int ->
    max_rate:Rate.t ->
    dst_mac:Mac.t ->
    Flow_table.entry option;
  b_tick : now:Time.t -> unit;
}

(* A factory rather than a shared backend value: one collector config is
   reused across every monitored switch (Controller.create), and each
   switch needs its own state. *)
type table_kind =
  | Exact
  | Custom_backend of
      (switch:int -> flow_timeout:Time.t -> journal:Journal.t -> table_backend)

type config = {
  min_gap : Time.t;
  max_burst : Time.t;
  flow_timeout : Time.t;
  event_cooldown : Time.t;
  ring_capacity : int;
  poll_interval : Time.t;
  table : table_kind;
}

let default_config =
  {
    min_gap = Time.us 200;
    max_burst = Time.us 700;
    flow_timeout = Time.ms 10;
    event_cooldown = Time.ms 1;
    ring_capacity = 2048;
    poll_interval = Time.us 25;
    table = Exact;
  }

let exact_backend ~flow_timeout =
  let flows = Flow_table.create ~timeout:flow_timeout () in
  {
    b_table = flows;
    b_sample =
      (fun ~key ~now ~bytes:_ ~max_rate ~dst_mac ->
        Some (Flow_table.touch flows ~key ~time:now ~max_rate ~dst_mac ()));
    b_tick = (fun ~now:_ -> ());
  }

type subscription = { threshold : float; callback : congestion -> unit }

type t = {
  engine : Engine.t;
  switch : int;
  routing : Routing.t;
  link_rate : Rate.t;
  config : config;
  backend : table_backend;
  flows : Flow_table.t;  (* = backend.b_table; the query surface *)
  mutable sink : Sink.t option;
  (* src ip -> routing dst MAC -> (in_port, out_port) at this switch;
     trees are static so entries never go stale. *)
  port_cache : (int, (int, int * int) Hashtbl.t) Hashtbl.t;
  vantage : Packet.t Fifo.t;  (* keyed by rx time *)
  mutable vantage_capacity : int;  (* 0 until [capture] *)
  mutable subscriptions : subscription list;
  mutable taps : (rx:Time.t -> arrival:Time.t -> Packet.t -> unit) list;
  mutable flow_event_subs : (flow_event -> unit) list;
  mutable estimate_hooks : (Flow_key.t -> Rate.t -> Time.t -> unit) list;
  last_event : (int, Time.t) Hashtbl.t; (* port -> last event time *)
  mutable samples_seen : int;
  mutable data_samples : int;
  (* Telemetry handles, labelled "s<switch>" in the process-wide
     registry. Sample latency is rx - arrival: the netmap batching
     delay the sink adds (the "collector" slice of Fig 12). *)
  tel_samples : Metrics.counter;
  tel_data_samples : Metrics.counter;
  tel_estimates : Metrics.counter;
  tel_congestion_events : Metrics.counter;
  tel_poll_latency : Metrics.histogram;
  tel_flow_entries : Metrics.gauge;
  tel_evictions : Metrics.counter;
}

let create engine ~switch ~routing ~link_rate ?(config = default_config) () =
  let tel_label = Printf.sprintf "s%d" switch in
  let tel name = Metrics.counter ~subsystem:"collector" ~name ~label:tel_label () in
  let backend =
    match config.table with
    | Exact -> exact_backend ~flow_timeout:config.flow_timeout
    | Custom_backend make ->
        make ~switch ~flow_timeout:config.flow_timeout
          ~journal:(Engine.journal engine)
  in
  let tel_evictions = tel "flow_table_evictions" in
  Flow_table.add_on_expire backend.b_table (fun ~now:_ _entry ->
      Metrics.Counter.incr tel_evictions);
  {
    engine;
    switch;
    routing;
    link_rate;
    config;
    backend;
    flows = backend.b_table;
    sink = None;
    port_cache = Hashtbl.create 64;
    vantage = Fifo.create ~dummy:Packet.placeholder ();
    vantage_capacity = 0;
    subscriptions = [];
    taps = [];
    flow_event_subs = [];
    estimate_hooks = [];
    last_event = Hashtbl.create 16;
    samples_seen = 0;
    data_samples = 0;
    tel_samples = tel "samples";
    tel_data_samples = tel "data_samples";
    tel_estimates = tel "estimate_updates";
    tel_congestion_events = tel "congestion_events";
    tel_poll_latency =
      Metrics.histogram ~subsystem:"collector" ~name:"poll_latency_ns"
        ~label:tel_label ();
    tel_flow_entries =
      Metrics.gauge ~subsystem:"collector" ~name:"flow_table_entries"
        ~label:tel_label ();
    tel_evictions;
  }

let switch_id t = t.switch

(* ---- Port inference (§4.2) ---- *)

let infer_ports t ~src_ip ~dst_mac =
  let ip = Ipv4_addr.to_int src_ip and mac = Mac.to_int dst_mac in
  let by_mac =
    try Hashtbl.find t.port_cache ip
    with Not_found ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.port_cache ip tbl;
      tbl
  in
  try Hashtbl.find by_mac mac
  with Not_found ->
    let on_path hop = hop.Routing.switch = t.switch in
    let ports =
      match Ipv4_addr.host_id src_ip with
      | None -> (-1, -1)
      | Some src -> (
          match List.find_opt on_path (Routing.path t.routing ~src ~dst_mac)
          with
          | Some hop -> (hop.Routing.in_port, hop.Routing.out_port)
          | None | (exception Invalid_argument _) -> (-1, -1))
    in
    Hashtbl.replace by_mac mac ports;
    ports

(* ---- Event generation ---- *)

let link_utilization t ~port =
  let now = Engine.now t.engine in
  List.fold_left
    (fun acc entry -> acc +. Flow_table.rate entry)
    0.0
    (Flow_table.active_on_port t.flows ~now ~out_port:port)

let flows_on_port t ~port =
  let now = Engine.now t.engine in
  List.map
    (fun entry ->
      (entry.Flow_table.key, Flow_table.rate entry, entry.Flow_table.dst_mac))
    (Flow_table.active_on_port t.flows ~now ~out_port:port)

let check_congestion t ~port =
  if port >= 0 && t.subscriptions <> [] then begin
    let now = Engine.now t.engine in
    let cooled =
      match Hashtbl.find_opt t.last_event port with
      | Some last -> now - last >= t.config.event_cooldown
      | None -> true
    in
    if cooled then begin
      let utilization = link_utilization t ~port in
      let interested =
        List.filter
          (fun sub -> utilization >= sub.threshold *. t.link_rate)
          t.subscriptions
      in
      if interested <> [] then begin
        Log.debug (fun m ->
            m "s%d: port %d utilization %.2f Gbps crossed a threshold"
              t.switch port (utilization /. 1e9));
        Hashtbl.replace t.last_event port now;
        Metrics.Counter.incr t.tel_congestion_events;
        (* Mint the correlation id that names this control loop: every
           journal event downstream (notify, decide, install,
           effective) carries it, so Inspect can decompose the loop
           into the Fig 12/15 stages. *)
        let journal = Engine.journal t.engine in
        let corr = Journal.next_corr journal in
        let event =
          {
            time = now;
            switch = t.switch;
            port;
            utilization;
            capacity = t.link_rate;
            flows = flows_on_port t ~port;
            corr;
          }
        in
        if Journal.enabled journal then
          Journal.record journal ~ts:now ~corr
            (Journal.Congestion_detected
               {
                 switch = t.switch;
                 port;
                 gbps = utilization /. 1e9;
                 capacity_gbps = t.link_rate /. 1e9;
                 flows = List.length event.flows;
               });
        List.iter (fun sub -> sub.callback event) interested
      end
    end
  end

(* ---- Sample processing ---- *)

let sample t ~rx ~arrival packet =
  let key = Flow_key.of_packet packet in
  let in_port, out_port =
    match key with
    | Some k ->
        infer_ports t ~src_ip:k.Flow_key.src_ip
          ~dst_mac:(Packet.dst_mac packet)
    | None -> (-1, -1)
  in
  let payload = Packet.tcp_payload_len packet in
  let seq32 =
    match packet with
    | Packet.Tcp { seq; _ } -> Some seq
    | Packet.Udp _ | Packet.Arp _ -> None
  in
  { rx; arrival; packet; key; payload; seq32; in_port; out_port }

(* Taps get the raw frame: a tap that wants the decoded record builds
   it with [sample], so a frame no tap looks at costs nothing. *)
let rec run_taps taps ~rx ~arrival packet =
  match taps with
  | [] -> ()
  | tap :: rest ->
      tap ~rx ~arrival packet;
      run_taps rest ~rx ~arrival packet

(* Flow events and the data-sample path read the headers of the frame
   the sink delivered in place; only a TCP frame that carries payload
   or a lifecycle flag someone listens for builds its flow key. *)
let process t ~arrival ~rx (packet : Packet.t) =
  t.samples_seen <- t.samples_seen + 1;
  Metrics.Counter.incr t.tel_samples;
  Metrics.Histogram.observe t.tel_poll_latency (rx - arrival);
  if t.vantage_capacity > 0 then begin
    if Fifo.length t.vantage >= t.vantage_capacity then
      ignore (Fifo.pop t.vantage : Packet.t);
    Fifo.push t.vantage ~key:rx packet
  end;
  (match packet with
  | Packet.Tcp
      { src_ip; dst_ip; src_port; dst_port; seq = seq32; flags; dst_mac; _ } ->
      let payload = Packet.tcp_payload_len packet in
      let starts = Headers.Tcp_flags.has_syn flags in
      let notify =
        t.flow_event_subs <> []
        && (starts || Headers.Tcp_flags.has_fin flags
           || Headers.Tcp_flags.has_rst flags)
      in
      if payload > 0 || notify then begin
        let key =
          {
            Flow_key.src_ip;
            dst_ip;
            src_port;
            dst_port;
            protocol = Headers.Ipv4.protocol_tcp;
          }
        in
        if notify then begin
          let kind = if starts then Flow_started else Flow_ended in
          let event = { time = rx; flow = key; kind } in
          List.iter (fun sub -> sub event) t.flow_event_subs
        end;
        if payload > 0 then begin
          t.data_samples <- t.data_samples + 1;
          Metrics.Counter.incr t.tel_data_samples;
          t.backend.b_tick ~now:rx;
          let admitted =
            t.backend.b_sample ~key ~now:rx ~bytes:payload
              ~max_rate:t.link_rate ~dst_mac
          in
          (* Re-setting an unchanged gauge would box a float per sample. *)
          let entries = Flow_table.size t.flows in
          if entries <> int_of_float (Metrics.Gauge.value t.tel_flow_entries)
          then Metrics.Gauge.set_int t.tel_flow_entries entries;
          match admitted with
          | None -> () (* sketch tier only: no exact entry (yet) *)
          | Some entry -> (
              let in_port, out_port =
                infer_ports t ~src_ip ~dst_mac
              in
              entry.Flow_table.in_port <- in_port;
              entry.Flow_table.out_port <- out_port;
              entry.Flow_table.sampled_packets <-
                entry.Flow_table.sampled_packets + 1;
              entry.Flow_table.sampled_bytes <-
                entry.Flow_table.sampled_bytes + payload;
              Flow_table.note_seq entry ~seq32 ~payload;
              match
                Rate_estimator.update entry.Flow_table.estimator ~time:rx
                  ~seq32
              with
              | Some rate ->
                  Metrics.Counter.incr t.tel_estimates;
                  let journal = Engine.journal t.engine in
                  if Journal.enabled journal then
                    Journal.record journal ~ts:rx
                      (Journal.Estimate_update
                         {
                           switch = t.switch;
                           flow = Flow_key.to_string key;
                           gbps = rate /. 1e9;
                         });
                  List.iter (fun hook -> hook key rate rx) t.estimate_hooks;
                  check_congestion t ~port:out_port
              | None -> ())
        end
      end
  | Packet.Udp _ | Packet.Arp _ -> ());
  run_taps t.taps ~rx ~arrival packet

let attach t =
  match t.sink with
  | Some _ -> invalid_arg "Collector.attach: already attached"
  | None ->
      let sink =
        Sink.create t.engine ~ring_capacity:t.config.ring_capacity
          ~poll_interval:t.config.poll_interval
          ~label:(Printf.sprintf "s%d" t.switch)
          ~consumer:(process t)
          ()
      in
      t.sink <- Some sink;
      Fabric.attach_sink
        (Routing.fabric t.routing)
        ~switch:t.switch
        ~deliver:(Sink.ingress sink)

(* ---- Queries & subscriptions ---- *)

let flow_rate t key =
  match Flow_table.find t.flows key with
  | None -> None
  | Some entry -> Rate_estimator.current entry.Flow_table.estimator

let samples_seen t = t.samples_seen
let data_samples t = t.data_samples
let flows_tracked t = Flow_table.size t.flows
let sink t = t.sink

let subscribe_congestion t ~threshold callback =
  t.subscriptions <- { threshold; callback } :: t.subscriptions

let subscribe_flow_events t callback =
  t.flow_event_subs <- callback :: t.flow_event_subs

let flow_sampling_fraction t key =
  match Flow_table.find t.flows key with
  | None -> None
  | Some entry -> Flow_table.sampling_fraction entry

let flow_retransmission_fraction t key =
  match Flow_table.find t.flows key with
  | None -> None
  | Some entry ->
      let data = Rate_estimator.samples entry.Flow_table.estimator in
      if data = 0 then None
      else
        Some
          (float_of_int (Rate_estimator.out_of_order entry.Flow_table.estimator)
          /. float_of_int data)

let set_tap t tap = t.taps <- tap :: t.taps
let on_estimate t hook = t.estimate_hooks <- hook :: t.estimate_hooks

let capture t ~capacity =
  if capacity <= 0 then invalid_arg "Collector.capture: capacity <= 0";
  t.vantage_capacity <- capacity;
  while Fifo.length t.vantage > capacity do
    ignore (Fifo.pop t.vantage : Packet.t)
  done

let vantage_pcap t =
  let pcap = Pcap.create () in
  Fifo.iter (fun time packet -> Pcap.add pcap ~time packet) t.vantage;
  Pcap.contents pcap

let vantage_count t = Fifo.length t.vantage
