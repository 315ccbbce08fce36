module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Fifo = Planck_util.Fifo
module Packet = Planck_packet.Packet

type t = {
  engine : Engine.t;
  rate : Rate.t;
  prop_delay : Time.t;
  queues : Packet.t Fifo.t array; (* keys unused *)
  priority_class : int option;
  deliver : Packet.t -> unit;
  on_depart : Packet.t -> unit;
  (* Cross-shard links: when set, the propagation leg is the peer
     shard's business — hand the frame and its arrival time to the
     channel instead of the local deliveries queue. *)
  handoff : (Time.t -> Packet.t -> unit) option;
  mutable next_class : int; (* round-robin scan position *)
  mutable busy : bool;
  mutable in_flight : Packet.t; (* frame on the serializer, while [busy] *)
  (* Frames propagating towards the peer, keyed by arrival time. The
     propagation delay is a per-port constant, so arrivals are FIFO and
     one timer paces them all; no per-packet closure is allocated. *)
  deliveries : Packet.t Fifo.t;
  tx_timer : Engine.Timer.t;
  delivery_timer : Engine.Timer.t;
  mutable queued_bytes : int;
  mutable queued_packets : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
}

let is_priority t cls =
  match t.priority_class with Some p -> p = cls | None -> false

(* Round-robin: the first non-empty sub-queue from next_class on. *)
let rec scan t i =
  let n = Array.length t.queues in
  let cls = (t.next_class + i) mod n in
  if is_priority t cls || Fifo.is_empty t.queues.(cls) then scan t (i + 1)
  else begin
    t.next_class <- (cls + 1) mod n;
    Fifo.pop t.queues.(cls)
  end

(* Strict priority first, then round-robin. Only called with a frame
   queued. *)
let pop_next t =
  match t.priority_class with
  | Some p when not (Fifo.is_empty t.queues.(p)) -> Fifo.pop t.queues.(p)
  | Some _ | None -> scan t 0

let rec transmit_next t =
  if t.queued_packets = 0 then t.busy <- false
  else begin
    let packet = pop_next t in
    t.busy <- true;
    t.in_flight <- packet;
    t.queued_bytes <- t.queued_bytes - Packet.wire_size packet;
    t.queued_packets <- t.queued_packets - 1;
    let tx = Rate.tx_time t.rate ~bytes_:(Packet.wire_size packet) in
    Engine.Timer.reschedule t.tx_timer ~delay:tx
  end

and on_tx_done t =
  if t.busy then begin
    let packet = t.in_flight in
    t.in_flight <- Packet.placeholder;
    t.tx_packets <- t.tx_packets + 1;
    t.tx_bytes <- t.tx_bytes + Packet.wire_size packet;
    t.on_depart packet;
    let ready = Engine.now t.engine + t.prop_delay in
    (match t.handoff with
    | Some h -> h ready packet
    | None ->
        Fifo.push t.deliveries ~key:ready packet;
        if not (Engine.Timer.pending t.delivery_timer) then
          Engine.Timer.reschedule_at t.delivery_timer ~time:ready);
    transmit_next t
  end

let on_delivery t =
  if not (Fifo.is_empty t.deliveries) then t.deliver (Fifo.pop t.deliveries);
  if not (Fifo.is_empty t.deliveries) then
    Engine.Timer.reschedule_at t.delivery_timer
      ~time:(Fifo.peek_key t.deliveries)

let create engine ~rate ~prop_delay ~classes ?priority_class ?handoff ~deliver
    ~on_depart () =
  if classes <= 0 then invalid_arg "Txport.create: classes must be positive";
  (match priority_class with
  | Some p when p < 0 || p >= classes ->
      invalid_arg "Txport.create: priority class out of range"
  | Some _ | None -> ());
  let t =
    {
      engine;
      rate;
      prop_delay;
      queues =
        Array.init classes (fun _ -> Fifo.create ~dummy:Packet.placeholder ());
      priority_class;
      deliver;
      on_depart;
      handoff;
      next_class = 0;
      busy = false;
      in_flight = Packet.placeholder;
      deliveries = Fifo.create ~dummy:Packet.placeholder ();
      tx_timer = Engine.Timer.create engine ignore;
      delivery_timer = Engine.Timer.create engine ignore;
      queued_bytes = 0;
      queued_packets = 0;
      tx_packets = 0;
      tx_bytes = 0;
    }
  in
  Engine.Timer.set_callback t.tx_timer (fun () -> on_tx_done t);
  Engine.Timer.set_callback t.delivery_timer (fun () -> on_delivery t);
  t

let enqueue t ~cls packet =
  Fifo.push t.queues.(cls) ~key:0 packet;
  t.queued_bytes <- t.queued_bytes + Packet.wire_size packet;
  t.queued_packets <- t.queued_packets + 1;
  if not t.busy then transmit_next t

let held_bytes t =
  if t.busy then t.queued_bytes + Packet.wire_size t.in_flight
  else t.queued_bytes

let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
