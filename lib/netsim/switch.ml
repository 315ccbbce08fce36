module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Heap = Planck_util.Heap
module Prng = Planck_util.Prng
module Int_table = Planck_util.Int_table
module Packet = Planck_packet.Packet
module Mac = Planck_packet.Mac
module Metrics = Planck_telemetry.Metrics
module Journal = Planck_telemetry.Journal

type arbitration = Round_robin | Fifo

type config = {
  buffer_total : int;
  buffer_reservation : int;
  dt_alpha : float;
  pipeline_latency : Time.t;
  pipeline_jitter : Time.t;
  mirror_buffer_cap : int option;
  mirror_arbitration : arbitration;
  mirror_priority_special : bool;
  mirror_priority_max_fraction : float;
}

let default_config =
  {
    buffer_total = 9 * 1024 * 1024;
    buffer_reservation = 12 * 1024;
    dt_alpha = 0.8;
    pipeline_latency = Time.ns 700;
    pipeline_jitter = Time.ns 800;
    mirror_buffer_cap = None;
    mirror_arbitration = Fifo;
    mirror_priority_special = false;
    mirror_priority_max_fraction = 0.1;
  }

type counters = {
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable data_drops : int;
  mutable mirror_drops : int;
}

(* Per-port counter vectors (process-wide registry, one handle per
   switch and metric; snapshots label the rows "<switch>.p<port>"),
   plus the per-switch shared-buffer high-water gauge. Registered once
   at switch creation; every hot-path update is a single enabled-flag
   branch when telemetry is off. *)
type telemetry = {
  tel_enqueued : Metrics.counter_vector;
  tel_data_drops : Metrics.counter_vector;
  tel_mirror_drops : Metrics.counter_vector;
  tel_buffer_hw : Metrics.gauge;
}

type t = {
  engine : Engine.t;
  name : string;
  nports : int;
  config : config;
  buffer : Buffer_pool.t;
  tx : Txport.t option array;
  counters : counters array;
  (* Computed routes (MAC -> egress port or -1); explicit MAC entries
     over them ([hidden] hides a computed route) and shadow -> base MAC
     rewrites, keyed by the MAC's int. *)
  mutable routes : Mac.t -> int;
  fdb : Int_table.t;
  rewrites : Int_table.t;
  flow_rewrites : Mac.t Planck_packet.Flow_key.Table.t;
  mutable forward_taps :
    (in_port:int -> out_port:int -> Packet.t -> unit) list;
  mutable monitor : int option;
  mirrored : bool array;
  mutable unroutable : int;
  mutable mirror_total : int;
  mutable mirror_special : int;
  (* Highest shared-buffer eighth (1-8 of capacity) seen so far; the
     journal records upward crossings only, so a full run produces at
     most 8 Queue_high_water events per switch. *)
  mutable hw_level : int;
  (* Frames in the ingress pipeline, keyed by their (jittered) exit
     time. Jitter makes exit times non-monotone, so a min-heap orders
     them and a single preallocated timer tracks its head — no
     per-packet closure. FIFO seq in the heap keeps equal exit times in
     arrival order. The heap holds slot numbers: a frame and its ingress
     port wait in [pipe_packets]/[pipe_ports], and freed slots are
     recycled through the [pipe_free] stack, so admitting a frame
     allocates nothing. *)
  pipeline : int Heap.t;
  mutable pipe_packets : Packet.t array;
  mutable pipe_ports : int array;
  mutable pipe_free : int array;
  mutable n_free : int;
  pipeline_timer : Engine.Timer.t;
  mutable pipeline_armed_at : Time.t;
  prng : Prng.t;
  tel : telemetry;
}

let engine t = t.engine

let check_port t port label =
  if port < 0 || port >= t.nports then
    invalid_arg (Printf.sprintf "Switch.%s: port %d out of range" label port)

let connect t ~port ~rate ~prop_delay ?handoff ~deliver () =
  check_port t port "connect";
  (match t.tx.(port) with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Switch.connect: port %d already connected" port)
  | None -> ());
  (* One round-robin class per potential mirror source; data traffic
     always uses class 0, so non-monitor ports behave as plain FIFO.
     An extra strict-priority class carries SYN/FIN/RST mirror copies
     when preferential sampling is on. *)
  let normal_classes =
    match t.config.mirror_arbitration with
    | Round_robin -> t.nports
    | Fifo -> 1
  in
  let classes, priority_class =
    if t.config.mirror_priority_special then
      (normal_classes + 1, Some normal_classes)
    else (normal_classes, None)
  in
  let on_depart packet =
    Buffer_pool.release t.buffer ~port ~bytes_:(Packet.wire_size packet)
  in
  t.tx.(port) <-
    Some
      (Txport.create t.engine ~rate ~prop_delay ~classes ?priority_class
         ?handoff ~deliver ~on_depart ())

let hidden = max_int
let set_routes t routes = t.routes <- routes

let add_route t mac port =
  check_port t port "add_route";
  Int_table.replace t.fdb (Mac.to_int mac) port

let remove_route t mac =
  if t.routes mac < 0 then Int_table.remove t.fdb (Mac.to_int mac)
  else Int_table.replace t.fdb (Mac.to_int mac) hidden

(* Explicit entries are looked up only when there are any, the way
   [forward] skips an empty rewrite table. -1 on a miss. *)
let[@inline] lookup t mac =
  match Int_table.length t.fdb with
  | 0 -> t.routes mac
  | _ -> (
      match Int_table.find t.fdb (Mac.to_int mac) with
      | -1 -> t.routes mac
      | port -> if port = hidden then -1 else port)

let route t mac = match lookup t mac with -1 -> None | port -> Some port

let route_count t = Int_table.length t.fdb

let add_rewrite t ~from_mac ~to_mac =
  Int_table.replace t.rewrites (Mac.to_int from_mac) (Mac.to_int to_mac)

let add_flow_rewrite t ~key ~to_mac =
  Planck_packet.Flow_key.Table.replace t.flow_rewrites key to_mac

let remove_flow_rewrite t ~key =
  Planck_packet.Flow_key.Table.remove t.flow_rewrites key

let flow_rewrite_count t = Planck_packet.Flow_key.Table.length t.flow_rewrites

let add_forward_tap t tap = t.forward_taps <- t.forward_taps @ [ tap ]

let set_mirror t ~monitor ~mirrored =
  check_port t monitor "set_mirror";
  List.iter (fun p -> check_port t p "set_mirror") mirrored;
  if List.mem monitor mirrored then
    invalid_arg "Switch.set_mirror: monitor port cannot mirror itself";
  Array.fill t.mirrored 0 t.nports false;
  List.iter (fun p -> t.mirrored.(p) <- true) mirrored;
  t.monitor <- Some monitor;
  Buffer_pool.set_port_cap t.buffer ~port:monitor t.config.mirror_buffer_cap

let clear_mirror t =
  Array.fill t.mirrored 0 t.nports false;
  (match t.monitor with
  | Some p -> Buffer_pool.set_port_cap t.buffer ~port:p None
  | None -> ());
  t.monitor <- None

let monitor_port t = t.monitor

(* Admission + enqueue on one egress port. [mirror] selects which drop
   counter an admission failure charges. *)
let drop t ~port ~mirror =
  if mirror then begin
    t.counters.(port).mirror_drops <- t.counters.(port).mirror_drops + 1;
    Metrics.Counter_vector.incr t.tel.tel_mirror_drops port
  end
  else begin
    t.counters.(port).data_drops <- t.counters.(port).data_drops + 1;
    Metrics.Counter_vector.incr t.tel.tel_data_drops port
  end;
  let journal = Engine.journal t.engine in
  if Journal.enabled journal then
    Journal.record journal ~ts:(Engine.now t.engine)
      (Journal.Packet_drop { switch = t.name; port; mirror })

let note_high_water t =
  let capacity = Buffer_pool.capacity t.buffer in
  let level =
    if capacity = 0 then 0
    else Buffer_pool.shared_used t.buffer * 8 / capacity
  in
  if level > t.hw_level then begin
    t.hw_level <- level;
    Journal.record (Engine.journal t.engine) ~ts:(Engine.now t.engine)
      (Journal.Queue_high_water
         {
           switch = t.name;
           occupancy = Buffer_pool.shared_used t.buffer;
           capacity;
           level;
         })
  end

let enqueue t ~port ~cls ~mirror packet =
  match t.tx.(port) with
  | None ->
      (* Egress not wired up: treat as drop. *)
      drop t ~port ~mirror
  | Some txport ->
      if
        Buffer_pool.try_alloc t.buffer ~port ~bytes_:(Packet.wire_size packet)
      then begin
        Metrics.Counter_vector.incr t.tel.tel_enqueued port;
        (* Re-setting an unchanged gauge would box a float per frame;
           the high-water mark changes only when it rises. *)
        let hw = Buffer_pool.shared_high_water t.buffer in
        if hw <> int_of_float (Metrics.Gauge.value t.tel.tel_buffer_hw) then
          Metrics.Gauge.set_int t.tel.tel_buffer_hw hw;
        if Journal.enabled (Engine.journal t.engine) then note_high_water t;
        match Txport.enqueue txport ~cls packet with
        | () -> ()
        | exception e ->
            (* The admitted bytes belong to the txport only once enqueue
               returns; on the exception edge they must go back to the
               pool or the accounting leaks them forever. *)
            let bt = Printexc.get_raw_backtrace () in
            Buffer_pool.release t.buffer ~port
              ~bytes_:(Packet.wire_size packet);
            Printexc.raise_with_backtrace e bt
      end
      else drop t ~port ~mirror

let rec run_taps taps ~in_port ~out_port packet =
  match taps with
  | [] -> ()
  | tap :: rest ->
      tap ~in_port ~out_port packet;
      run_taps rest ~in_port ~out_port packet

let forward t ~in_port packet =
  (* Ingress match-action: per-flow destination rewrite (OpenFlow
     rerouting) happens before the forwarding lookup. The key is only
     materialized when rules exist — this is the per-packet hot path. *)
  let packet =
    if Planck_packet.Flow_key.Table.length t.flow_rewrites = 0 then packet
    else
      match Planck_packet.Flow_key.of_packet packet with
      | None -> packet
      | Some key -> (
          match Planck_packet.Flow_key.Table.find_opt t.flow_rewrites key with
          | None -> packet
          | Some to_mac -> Packet.with_dst_mac packet to_mac)
  in
  (* Both lookups return -1 on a miss: no option and no exception per
     frame. Only destination edge switches hold shadow->base rewrite
     rules; elsewhere the rewrite lookup is skipped. *)
  let dst_mac = Packet.dst_mac packet in
  match lookup t dst_mac with
  | -1 -> t.unroutable <- t.unroutable + 1
  | out_port ->
      let outgoing =
        if Int_table.length t.rewrites = 0 then packet
        else
          match Int_table.find t.rewrites (Mac.to_int dst_mac) with
          | -1 -> packet
          | to_mac -> Packet.with_dst_mac packet (Mac.of_int to_mac)
      in
      run_taps t.forward_taps ~in_port ~out_port packet;
      enqueue t ~port:out_port ~cls:0 ~mirror:false outgoing;
      (* Mirror the pre-rewrite frame so the collector sees the routing
         (shadow) MAC. The mirror copy is arbitrated into the monitor
         port in a per-source-port class; SYN/FIN/RST copies may use
         the strict-priority class, subject to the flood bound. *)
      match t.monitor with
      | Some monitor when t.mirrored.(out_port) ->
          t.mirror_total <- t.mirror_total + 1;
          let normal_cls =
            match t.config.mirror_arbitration with
            | Round_robin -> out_port
            | Fifo -> 0
          in
          let special =
            t.config.mirror_priority_special
            &&
            match packet with
            | Packet.Tcp { flags; _ } ->
                Planck_packet.Headers.Tcp_flags.(
                  has_syn flags || has_fin flags || has_rst flags)
            | Packet.Udp _ | Packet.Arp _ -> false
          in
          let within_budget =
            float_of_int (t.mirror_special + 1)
            <= (t.config.mirror_priority_max_fraction
                *. float_of_int (t.mirror_total + 1))
               +. 8.0
          in
          let cls =
            if special && within_budget then begin
              t.mirror_special <- t.mirror_special + 1;
              (* The priority class sits just past the normal ones. *)
              match t.config.mirror_arbitration with
              | Round_robin -> t.nports
              | Fifo -> 1
            end
            else normal_cls
          in
          enqueue t ~port:monitor ~cls ~mirror:true packet
      | Some _ | None -> ()

(* Arm the pipeline timer at the heap's head; re-arm only when a new
   frame beats the armed exit time. *)
let arm_pipeline t =
  if not (Heap.is_empty t.pipeline) then begin
    let ready = Heap.top_key t.pipeline in
    if
      (not (Engine.Timer.pending t.pipeline_timer))
      || ready < t.pipeline_armed_at
    then begin
      t.pipeline_armed_at <- ready;
      Engine.Timer.reschedule_at t.pipeline_timer ~time:ready
    end
  end

(* Double the slot arrays; the new slots go on the free stack. *)
let grow_pipe t =
  let cap = Array.length t.pipe_ports in
  let cap' = max 8 (2 * cap) in
  let packets = Array.make cap' Packet.placeholder in
  let ports = Array.make cap' 0 in
  Array.blit t.pipe_packets 0 packets 0 cap;
  Array.blit t.pipe_ports 0 ports 0 cap;
  t.pipe_packets <- packets;
  t.pipe_ports <- ports;
  t.pipe_free <- Array.init cap' (fun i -> cap' - 1 - i);
  t.n_free <- cap' - cap

let pipe_enter t ~ready ~port packet =
  if t.n_free = 0 then grow_pipe t;
  t.n_free <- t.n_free - 1;
  let slot = t.pipe_free.(t.n_free) in
  t.pipe_packets.(slot) <- packet;
  t.pipe_ports.(slot) <- port;
  Heap.add t.pipeline ~key:ready slot

let rec drain_pipeline t now =
  if (not (Heap.is_empty t.pipeline)) && Heap.top_key t.pipeline <= now
  then begin
    let slot = Heap.top t.pipeline in
    Heap.drop t.pipeline;
    let packet = t.pipe_packets.(slot) and in_port = t.pipe_ports.(slot) in
    t.pipe_packets.(slot) <- Packet.placeholder;
    t.pipe_free.(t.n_free) <- slot;
    t.n_free <- t.n_free + 1;
    forward t ~in_port packet;
    drain_pipeline t now
  end

let on_pipeline t =
  drain_pipeline t (Engine.now t.engine);
  arm_pipeline t

let create engine ~name ~ports ~config ?prng () =
  if ports <= 0 then invalid_arg "Switch.create: ports must be positive";
  let prng =
    match prng with
    | Some prng -> prng
    | None -> Prng.create ~seed:(Prng.seed_of_string name)
  in
  let t =
    {
      engine;
      name;
      nports = ports;
      config;
      buffer =
        Buffer_pool.create ~total:config.buffer_total
          ~reservation:config.buffer_reservation ~alpha:config.dt_alpha ~ports;
      tx = Array.make ports None;
      counters =
        Array.init ports (fun _ ->
            { rx_packets = 0; rx_bytes = 0; data_drops = 0; mirror_drops = 0 });
      routes = (fun _ -> -1);
      fdb = Int_table.create ();
      rewrites = Int_table.create ();
      flow_rewrites = Planck_packet.Flow_key.Table.create 16;
      forward_taps = [];
      monitor = None;
      mirrored = Array.make ports false;
      unroutable = 0;
      mirror_total = 0;
      mirror_special = 0;
      hw_level = 0;
      pipeline = Heap.create ~dummy:0 ();
      pipe_packets = [||];
      pipe_ports = [||];
      pipe_free = [||];
      n_free = 0;
      pipeline_timer = Engine.Timer.create engine ignore;
      pipeline_armed_at = 0;
      prng;
      tel =
        (let per_port metric =
           Metrics.counter_vector ~subsystem:"switch" ~name:metric ~label:name
             ~ports ()
         in
         {
           tel_enqueued = per_port "enqueued";
           tel_data_drops = per_port "data_drops";
           tel_mirror_drops = per_port "mirror_drops";
           tel_buffer_hw =
             Metrics.gauge ~subsystem:"switch" ~name:"buffer_shared_high_water"
               ~label:name ();
         });
    }
  in
  Engine.Timer.set_callback t.pipeline_timer (fun () -> on_pipeline t);
  t

let inject t ~port packet =
  check_port t port "inject";
  enqueue t ~port ~cls:0 ~mirror:false packet

let ingress t ~port packet =
  check_port t port "ingress";
  let c = t.counters.(port) in
  c.rx_packets <- c.rx_packets + 1;
  c.rx_bytes <- c.rx_bytes + Packet.wire_size packet;
  let jitter =
    if t.config.pipeline_jitter <= 0 then 0
    else Prng.int t.prng (t.config.pipeline_jitter + 1)
  in
  let ready =
    Engine.now t.engine + t.config.pipeline_latency + jitter
  in
  pipe_enter t ~ready ~port packet;
  arm_pipeline t

type port_stats = {
  rx_packets : int;
  rx_bytes : int;
  tx_packets : int;
  tx_bytes : int;
  data_drops : int;
  mirror_drops : int;
}

let port_stats t ~port =
  check_port t port "port_stats";
  let c = t.counters.(port) in
  let tx_packets, tx_bytes =
    match t.tx.(port) with
    | None -> (0, 0)
    | Some tx -> (Txport.tx_packets tx, Txport.tx_bytes tx)
  in
  {
    rx_packets = c.rx_packets;
    rx_bytes = c.rx_bytes;
    tx_packets;
    tx_bytes;
    data_drops = c.data_drops;
    mirror_drops = c.mirror_drops;
  }

let total_data_drops t =
  Array.fold_left (fun acc (c : counters) -> acc + c.data_drops) 0 t.counters

let total_mirror_drops t =
  Array.fold_left (fun acc (c : counters) -> acc + c.mirror_drops) 0 t.counters

let unroutable_drops t = t.unroutable
let special_mirrored t = t.mirror_special

let queue_bytes t ~port =
  check_port t port "queue_bytes";
  Buffer_pool.port_used t.buffer ~port

let buffer_used t = Buffer_pool.total_used t.buffer

let check_buffer t =
  let rec go port =
    if port = t.nports then Ok ()
    else
      let pooled = Buffer_pool.port_used t.buffer ~port in
      let held =
        match t.tx.(port) with None -> 0 | Some tx -> Txport.held_bytes tx
      in
      if pooled = held then go (port + 1)
      else
        Error
          (Printf.sprintf
             "switch %s port %d: buffer pool charges %d bytes, egress holds %d"
             t.name port pooled held)
  in
  go 0
