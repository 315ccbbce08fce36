module Time = Planck_util.Time
module Fifo = Planck_util.Fifo
module Packet = Planck_packet.Packet
module Metrics = Planck_telemetry.Metrics

(* [ring] holds the accepted frames keyed by arrival time; [capacity]
   bounds it the way the NIC ring's slot count does. *)
type t = {
  engine : Engine.t;
  ring : Packet.t Fifo.t;
  capacity : int;
  poll_interval : Time.t;
  consumer : arrival:Time.t -> rx:Time.t -> Packet.t -> unit;
  poll_timer : Engine.Timer.t;
  mutable seen : int;
  mutable drops : int;
  tel_frames : Metrics.counter;
  tel_ring_drops : Metrics.counter;
}

let drain t =
  let rx = Engine.now t.engine in
  while not (Fifo.is_empty t.ring) do
    let arrival = Fifo.peek_key t.ring in
    t.consumer ~arrival ~rx (Fifo.pop t.ring)
  done

let create engine ?(ring_capacity = 2048) ?(poll_interval = Time.us 25)
    ?(label = "") ~consumer () =
  if ring_capacity <= 0 then invalid_arg "Sink.create: ring_capacity <= 0";
  let t =
    {
      engine;
      ring = Fifo.create ~dummy:Packet.placeholder ();
      capacity = ring_capacity;
      poll_interval;
      consumer;
      poll_timer = Engine.Timer.create engine ignore;
      seen = 0;
      drops = 0;
      tel_frames = Metrics.counter ~subsystem:"sink" ~name:"frames" ~label ();
      tel_ring_drops =
        Metrics.counter ~subsystem:"sink" ~name:"ring_drops" ~label ();
    }
  in
  Engine.Timer.set_callback t.poll_timer (fun () -> drain t);
  t

let ingress t packet =
  if Fifo.length t.ring < t.capacity then begin
    Fifo.push t.ring ~key:(Engine.now t.engine) packet;
    t.seen <- t.seen + 1;
    Metrics.Counter.incr t.tel_frames;
    if not (Engine.Timer.pending t.poll_timer) then
      Engine.Timer.reschedule t.poll_timer ~delay:t.poll_interval
  end
  else begin
    t.drops <- t.drops + 1;
    Metrics.Counter.incr t.tel_ring_drops
  end

let frames_seen t = t.seen
let ring_drops t = t.drops
