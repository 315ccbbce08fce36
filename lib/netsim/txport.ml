module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Fifo = Planck_util.Fifo
module Packet = Planck_packet.Packet

(* A port's frames sit in one growable ring in transmit order, indexed
   by absolute cursors [head <= sent <= tail] (a cursor's cell is
   [cursor land mask]):

   - [head, sent): transmitted, propagating towards the peer; their
     arrival times are in [arrivals]. The propagation delay is a
     per-port constant, so arrivals are FIFO and one timer paces them
     all; no per-frame closure is allocated.
   - [sent]: the frame on the serializer, while [sent < tail].
   - (sent, tail): frames waiting behind it, on a single-class port.

   A frame is written into its cell once and cleared once, at delivery
   (at tx-done on a handoff port), so the ring never keeps a delivered
   frame reachable. A multi-class port keeps its waiting frames in the
   class queues and appends the one it picks when the serializer takes
   it, so its ring holds at most the serializer frame past [sent]. *)
type t = {
  engine : Engine.t;
  rate : Rate.t;
  prop_delay : Time.t;
  (* Class queues of a multi-class port; empty on a single-class one.
     Keys unused. *)
  queues : Packet.t Fifo.t array;
  priority_class : int option;
  deliver : Packet.t -> unit;
  on_depart : Packet.t -> unit;
  (* Cross-shard links: when set, the propagation leg is the peer
     shard's business — hand the frame and its arrival time to the
     channel instead of keeping it in the ring. *)
  handoff : (Time.t -> Packet.t -> unit) option;
  mutable next_class : int; (* round-robin scan position *)
  mutable frames : Packet.t array;
  mutable arrivals : int array;
  mutable mask : int;
  mutable head : int;
  mutable sent : int;
  mutable tail : int;
  tx_timer : Engine.Timer.t;
  delivery_timer : Engine.Timer.t;
  (* Frames waiting for the serializer (not the one on it). *)
  mutable queued_bytes : int;
  mutable queued_packets : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
}

(* Double the ring; every cursor keeps its frame. *)
let grow t =
  let cap = max 8 (2 * Array.length t.frames) in
  let frames = Array.make cap Packet.placeholder in
  let arrivals = Array.make cap 0 in
  for c = t.head to t.tail - 1 do
    frames.(c land (cap - 1)) <- t.frames.(c land t.mask);
    arrivals.(c land (cap - 1)) <- t.arrivals.(c land t.mask)
  done;
  t.frames <- frames;
  t.arrivals <- arrivals;
  t.mask <- cap - 1

let[@inline] append t packet =
  if t.tail - t.head = Array.length t.frames then grow t;
  t.frames.(t.tail land t.mask) <- packet;
  t.tail <- t.tail + 1

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

(* Start serializing the next waiting frame, if any. Called only while
   the serializer is idle ([sent = tail] on a multi-class port). *)
let transmit_next t =
  if t.queued_packets > 0 then begin
    if Array.length t.queues > 0 then append t (pop_next t);
    let bytes = Packet.wire_size t.frames.(t.sent land t.mask) in
    t.queued_bytes <- t.queued_bytes - bytes;
    t.queued_packets <- t.queued_packets - 1;
    Engine.Timer.reschedule t.tx_timer ~delay:(Rate.tx_time t.rate ~bytes_:bytes)
  end

let on_tx_done t =
  if t.sent < t.tail then begin
    let i = t.sent land t.mask in
    let packet = t.frames.(i) in
    t.sent <- t.sent + 1;
    t.tx_packets <- t.tx_packets + 1;
    t.tx_bytes <- t.tx_bytes + Packet.wire_size packet;
    t.on_depart packet;
    let ready = Engine.now t.engine + t.prop_delay in
    (match t.handoff with
    | Some h ->
        t.frames.(i) <- Packet.placeholder;
        t.head <- t.sent;
        h ready packet
    | None ->
        t.arrivals.(i) <- ready;
        if not (Engine.Timer.pending t.delivery_timer) then
          Engine.Timer.reschedule_at t.delivery_timer ~time:ready);
    transmit_next t
  end

let on_delivery t =
  if t.head < t.sent then begin
    let i = t.head land t.mask in
    let packet = t.frames.(i) in
    t.frames.(i) <- Packet.placeholder;
    t.head <- t.head + 1;
    t.deliver packet
  end;
  if t.head < t.sent then
    Engine.Timer.reschedule_at t.delivery_timer
      ~time:t.arrivals.(t.head land t.mask)

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
        (if classes = 1 then [||]
         else
           Array.init classes (fun _ -> Fifo.create ~dummy:Packet.placeholder ()));
      priority_class;
      deliver;
      on_depart;
      handoff;
      next_class = 0;
      frames = [||];
      arrivals = [||];
      mask = 0;
      head = 0;
      sent = 0;
      tail = 0;
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
  let idle = t.sent = t.tail in
  if Array.length t.queues > 0 then Fifo.push t.queues.(cls) ~key:0 packet
  else if cls = 0 then append t packet
  else invalid_arg "Txport.enqueue: class out of range";
  t.queued_bytes <- t.queued_bytes + Packet.wire_size packet;
  t.queued_packets <- t.queued_packets + 1;
  if idle then transmit_next t

let held_bytes t =
  if t.sent < t.tail then
    t.queued_bytes + Packet.wire_size t.frames.(t.sent land t.mask)
  else t.queued_bytes

let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
