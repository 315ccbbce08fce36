module Time = Planck_util.Time
module Prng = Planck_util.Prng
module Fifo = Planck_util.Fifo
module Packet = Planck_packet.Packet
module Headers = Planck_packet.Headers
module Flow_key = Planck_packet.Flow_key
module Mac = Planck_packet.Mac
module Ipv4_addr = Planck_packet.Ipv4_addr

type stack = {
  send_delay_min : Time.t;
  send_delay_max : Time.t;
  recv_delay_min : Time.t;
  recv_delay_max : Time.t;
  arp_locktime : Time.t;
}

let default_stack =
  {
    send_delay_min = Time.us 50;
    send_delay_max = Time.us 90;
    recv_delay_min = Time.us 35;
    recv_delay_max = Time.us 55;
    arp_locktime = Time.zero;
  }

type arp_entry = { mutable entry_mac : Mac.t; mutable updated_at : Time.t }

type t = {
  engine : Engine.t;
  host_id : int;
  mac : Mac.t;
  ip : Ipv4_addr.t;
  stack : stack;
  prng : Prng.t;
  (* Hosts [0, neighbours) other than this one resolve to their base
     MAC by address arithmetic; [arp_cache] holds only the entries ARP
     traffic or [arp_set] touched, and shadows the arithmetic. *)
  mutable neighbours : int;
  mutable neighbours_at : Time.t;
  arp_cache : (Ipv4_addr.t, arp_entry) Hashtbl.t;
  mutable nic : Txport.t option;
  mutable receive : Packet.t -> unit;
  mutable send_traces : (Time.t -> Packet.t -> unit) list;
  mutable recv_traces : (Time.t -> Packet.t -> unit) list;
  mutable filtered : int;
  (* The kernel stack is FIFO in each direction: later frames can never
     overtake earlier ones even though per-frame delays are random — so
     one preallocated timer per direction paces the whole queue. Keys
     are the times the frames become ready. *)
  pending_sends : Packet.t Fifo.t;
  pending_recvs : Packet.t Fifo.t;
  send_timer : Engine.Timer.t;
  recv_timer : Engine.Timer.t;
  mutable last_send_ready : Time.t;
  mutable last_recv_ready : Time.t;
}

let mac t = t.mac
let ip t = t.ip
let engine t = t.engine

(* The NIC is multi-queue with per-flow fair scheduling (mq + TSQ-era
   Linux): bulk data of one flow cannot head-of-line-block the ACKs of
   another. *)
let nic_classes = 8

let connect t ~rate ~prop_delay ~deliver =
  match t.nic with
  | Some _ -> invalid_arg "Host.connect: already connected"
  | None ->
      t.nic <-
        Some
          (Txport.create t.engine ~rate ~prop_delay ~classes:nic_classes
             ~deliver
             ~on_depart:(fun _ -> ())
             ())

let uniform_delay t lo hi =
  if hi <= lo then lo else lo + Prng.int t.prng (hi - lo + 1)

let rec run_traces traces now packet =
  match traces with
  | [] -> ()
  | trace :: rest ->
      trace now packet;
      run_traces rest now packet

let send t packet =
  let now = Engine.now t.engine in
  run_traces t.send_traces now packet;
  let delay = uniform_delay t t.stack.send_delay_min t.stack.send_delay_max in
  let ready = max (now + delay) (t.last_send_ready + 1) in
  t.last_send_ready <- ready;
  Fifo.push t.pending_sends ~key:ready packet;
  if not (Engine.Timer.pending t.send_timer) then
    Engine.Timer.reschedule_at t.send_timer ~time:ready

(* The NIC class is a pure function of the frame, so it is picked at
   dequeue; ARP hashes to 0, i.e. class 0. *)
let on_send_ready t =
  if not (Fifo.is_empty t.pending_sends) then begin
    let packet = Fifo.pop t.pending_sends in
    match t.nic with
    | None -> ()
    | Some nic ->
        Txport.enqueue nic
          ~cls:(Flow_key.hash_packet packet mod nic_classes)
          packet
  end;
  if not (Fifo.is_empty t.pending_sends) then
    Engine.Timer.reschedule_at t.send_timer
      ~time:(Fifo.peek_key t.pending_sends)

let set_receive t f = t.receive <- f
let add_send_trace t f = t.send_traces <- t.send_traces @ [ f ]
let add_recv_trace t f = t.recv_traces <- t.recv_traces @ [ f ]

let set_neighbours t ~hosts =
  t.neighbours <- hosts;
  t.neighbours_at <- Engine.now t.engine

let neighbour_mac t ip =
  match Ipv4_addr.host_id ip with
  | Some j when j < t.neighbours && j <> t.host_id -> Some (Mac.host j)
  | Some _ | None -> None

(* The cache entry for [ip]. A neighbour's implicit entry materialises
   on first touch, stamped when the neighbours were set — so updates see
   the same entry, and the same locktime, as a pre-filled table. *)
let cache_entry t ip =
  match Hashtbl.find_opt t.arp_cache ip with
  | Some _ as found -> found
  | None -> (
      match neighbour_mac t ip with
      | None -> None
      | Some mac ->
          let entry = { entry_mac = mac; updated_at = t.neighbours_at } in
          Hashtbl.replace t.arp_cache ip entry;
          Some entry)

let arp_lookup t ip =
  if Hashtbl.length t.arp_cache = 0 then neighbour_mac t ip
  else
    match Hashtbl.find_opt t.arp_cache ip with
    | Some entry -> Some entry.entry_mac
    | None -> neighbour_mac t ip

let arp_set t ip mac =
  match cache_entry t ip with
  | Some entry ->
      entry.entry_mac <- mac;
      entry.updated_at <- Engine.now t.engine
  | None ->
      Hashtbl.replace t.arp_cache ip
        { entry_mac = mac; updated_at = Engine.now t.engine }

(* Linux-like cache update on traffic: respect the locktime — an entry
   changed less than [arp_locktime] ago refuses further updates. *)
let arp_learn t ip mac =
  match cache_entry t ip with
  | Some entry ->
      let now = Engine.now t.engine in
      if Mac.equal entry.entry_mac mac then entry.updated_at <- now
      else if now - entry.updated_at >= t.stack.arp_locktime then begin
        entry.entry_mac <- mac;
        entry.updated_at <- now
      end
  | None ->
      Hashtbl.replace t.arp_cache ip
        { entry_mac = mac; updated_at = Engine.now t.engine }

let send_arp_reply t ~to_mac ~to_ip =
  let reply =
    Packet.arp ~src_mac:t.mac ~dst_mac:to_mac
      {
        Headers.Arp.op = Headers.Arp.Reply;
        sender_mac = t.mac;
        sender_ip = t.ip;
        target_mac = to_mac;
        target_ip = to_ip;
      }
  in
  send t reply

let arp_input t ~(op : Headers.Arp.op) ~sender_mac ~sender_ip ~target_ip =
  match op with
  | Request ->
      (* MAC learning happens for requests that reach us (including the
         controller's unicast spoofed requests); we answer requests for
         our own address. *)
      if Ipv4_addr.equal target_ip t.ip then begin
        arp_learn t sender_ip sender_mac;
        send_arp_reply t ~to_mac:sender_mac ~to_ip:sender_ip
      end
  | Reply ->
      (* Unsolicited replies are ignored (Linux default); the hosts in
         this testbed never issue requests themselves, so every reply is
         unsolicited. *)
      ()

let accepts t packet =
  let dst = Packet.dst_mac packet in
  Mac.equal dst t.mac || Mac.equal dst Mac.broadcast

let on_recv_ready t =
  if not (Fifo.is_empty t.pending_recvs) then begin
    let packet = Fifo.pop t.pending_recvs in
    match packet with
    | Packet.Arp { op; sender_mac; sender_ip; target_ip; _ } ->
        arp_input t ~op ~sender_mac ~sender_ip ~target_ip
    | Packet.Tcp _ | Packet.Udp _ ->
        run_traces t.recv_traces (Engine.now t.engine) packet;
        t.receive packet
  end;
  if not (Fifo.is_empty t.pending_recvs) then
    Engine.Timer.reschedule_at t.recv_timer
      ~time:(Fifo.peek_key t.pending_recvs)

let ingress t packet =
  if not (accepts t packet) then t.filtered <- t.filtered + 1
  else begin
    let now = Engine.now t.engine in
    let delay =
      uniform_delay t t.stack.recv_delay_min t.stack.recv_delay_max
    in
    let ready = max (now + delay) (t.last_recv_ready + 1) in
    t.last_recv_ready <- ready;
    Fifo.push t.pending_recvs ~key:ready packet;
    if not (Engine.Timer.pending t.recv_timer) then
      Engine.Timer.reschedule_at t.recv_timer ~time:ready
  end

let create engine ~id ?(stack = default_stack) ~prng () =
  let t =
    {
      engine;
      host_id = id;
      mac = Mac.host id;
      ip = Ipv4_addr.host id;
      stack;
      prng;
      neighbours = 0;
      neighbours_at = Time.zero;
      arp_cache = Hashtbl.create 16;
      nic = None;
      receive = (fun _ -> ());
      send_traces = [];
      recv_traces = [];
      filtered = 0;
      pending_sends = Fifo.create ~dummy:Packet.placeholder ();
      pending_recvs = Fifo.create ~dummy:Packet.placeholder ();
      send_timer = Engine.Timer.create engine ignore;
      recv_timer = Engine.Timer.create engine ignore;
      last_send_ready = 0;
      last_recv_ready = 0;
    }
  in
  Engine.Timer.set_callback t.send_timer (fun () -> on_send_ready t);
  Engine.Timer.set_callback t.recv_timer (fun () -> on_recv_ready t);
  t

let filtered_frames t = t.filtered
