module Time = Planck_util.Time
module Heap = Planck_util.Heap
module Prng = Planck_util.Prng
module Engine = Planck_netsim.Engine
module Switch = Planck_netsim.Switch
module Packet = Planck_packet.Packet
module Flow_key = Planck_packet.Flow_key

type sample = {
  time : Time.t;
  key : Flow_key.t option;
  wire_size : int;
  in_port : int;
  out_port : int;
  dst_mac : Planck_packet.Mac.t;
  sampling_rate : int;
}

(* Fills the export heap's empty cells; never delivered. *)
let no_sample =
  {
    time = 0;
    key = None;
    wire_size = 0;
    in_port = 0;
    out_port = 0;
    dst_mac = Planck_packet.Mac.of_int 0;
    sampling_rate = 0;
  }

type config = {
  sampling_rate : int;
  max_samples_per_sec : int;
  export_latency_min : Time.t;
  export_latency_max : Time.t;
}

let default_config =
  {
    sampling_rate = 256;
    max_samples_per_sec = 300;
    export_latency_min = Time.us 500;
    export_latency_max = Time.ms 2;
  }

type t = {
  engine : Engine.t;
  cfg : config;
  prng : Prng.t;
  collector : sample -> unit;
  (* Token bucket for the control-plane budget: one token per
     1/max_samples_per_sec, burst of a handful. *)
  mutable tokens : float;
  mutable last_refill : Time.t;
  (* Datagrams in flight to the collector. Export latency is random so
     arrivals are non-monotone: a min-heap orders them and one
     preallocated timer tracks its head. *)
  pending : sample Heap.t;
  export_timer : Engine.Timer.t;
  mutable export_armed_at : Time.t;
  mutable selected : int;
  mutable exported : int;
  mutable throttled : int;
}

let bucket_burst = 8.0

let refill t =
  let now = Engine.now t.engine in
  let elapsed = Time.to_float_s (now - t.last_refill) in
  t.tokens <-
    min bucket_burst
      (t.tokens +. (elapsed *. float_of_int t.cfg.max_samples_per_sec));
  t.last_refill <- now

let arm_export t =
  if not (Heap.is_empty t.pending) then begin
    let at = Heap.top_key t.pending in
    if (not (Engine.Timer.pending t.export_timer)) || at < t.export_armed_at
    then begin
      t.export_armed_at <- at;
      Engine.Timer.reschedule_at t.export_timer ~time:at
    end
  end

let on_export t =
  let now = Engine.now t.engine in
  let rec loop () =
    if (not (Heap.is_empty t.pending)) && Heap.top_key t.pending <= now
    then begin
      let sample = Heap.top t.pending in
      Heap.drop t.pending;
      t.collector sample;
      loop ()
    end
  in
  loop ();
  arm_export t

let export t ~in_port ~out_port packet =
  refill t;
  if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    t.exported <- t.exported + 1;
    let latency =
      t.cfg.export_latency_min
      + Prng.int t.prng
          (max 1 (t.cfg.export_latency_max - t.cfg.export_latency_min))
    in
    let at = Engine.now t.engine + latency in
    Heap.add t.pending ~key:at
      {
        time = at;
        key = Flow_key.of_packet packet;
        wire_size = packet.Packet.wire_size;
        in_port;
        out_port;
        dst_mac = Packet.dst_mac packet;
        sampling_rate = t.cfg.sampling_rate;
      };
    arm_export t
  end
  else t.throttled <- t.throttled + 1

let attach engine switch ?(config = default_config) ~prng ~collector () =
  if config.sampling_rate <= 0 then
    invalid_arg "Sflow.Agent.attach: sampling_rate must be positive";
  let t =
    {
      engine;
      cfg = config;
      prng;
      collector;
      tokens = bucket_burst;
      last_refill = 0;
      pending = Heap.create ~dummy:no_sample ();
      export_timer = Engine.Timer.create engine ignore;
      export_armed_at = 0;
      selected = 0;
      exported = 0;
      throttled = 0;
    }
  in
  Engine.Timer.set_callback t.export_timer (fun () -> on_export t);
  Switch.add_forward_tap switch (fun ~in_port ~out_port packet ->
      (* Statistical 1-in-N selection. *)
      if Prng.int t.prng t.cfg.sampling_rate = 0 then begin
        t.selected <- t.selected + 1;
        export t ~in_port ~out_port packet
      end);
  t

let selected t = t.selected
let exported t = t.exported
let throttled t = t.throttled
