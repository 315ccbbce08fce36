module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Engine = Planck_netsim.Engine
module Host = Planck_netsim.Host
module Packet = Planck_packet.Packet
module Headers = Planck_packet.Headers
module Flow_key = Planck_packet.Flow_key
module Seq32 = Planck_packet.Seq32
module Journal = Planck_telemetry.Journal

type params = {
  mss : int;
  initial_window : int;
  min_rto : Time.t;
  max_flight : int;
  handshake : bool;
  isn : int;
}

let default_params =
  {
    mss = Packet.max_tcp_payload;
    initial_window = 10;
    min_rto = Time.ms 200;
    max_flight = 1024 * 1024;
    handshake = true;
    isn = 0;
  }

type phase = Syn_sent | Established | Done

type t = {
  engine : Engine.t;
  params : params;
  src : Endpoint.t;
  dst : Endpoint.t;
  data_key : Flow_key.t; (* src -> dst direction *)
  flow_size : int;
  isn : int; (* initial sequence number; all seq fields are isn-based *)
  fin : int; (* isn + flow_size, the sequence one past the last byte *)
  mutable phase : phase;
  (* Sender variables, all in full-width byte offsets. *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_max : int; (* highest byte ever sent; survives RTO rewinds *)
  mutable cwnd : float; (* bytes *)
  mutable ssthresh : float; (* bytes *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  (* SACK scoreboard: disjoint sorted [start, stop) ranges above
     snd_una the receiver has reported holding. *)
  mutable sacked : (int * int) list;
  mutable retx_next : int; (* lowest hole not yet retransmitted *)
  (* RTT estimation (RFC 6298). *)
  mutable srtt : float; (* seconds; negative = no sample yet *)
  mutable rttvar : float;
  mutable min_rtt : float; (* lowest sample seen; HyStart baseline *)
  (* CUBIC window-growth state (windows in MSS units). *)
  mutable cubic_epoch : Time.t; (* -1 = epoch not started *)
  mutable cubic_w_max : float; (* window before the last reduction *)
  mutable cubic_k : float; (* seconds to regain w_max *)
  mutable cubic_origin : float;
  mutable cubic_epoch_w : float; (* window (MSS) when the epoch began *)
  mutable rto : Time.t;
  mutable rtt_probe : (int * Time.t) option; (* (covering ack, sent at) *)
  (* Retransmission timer: a cancellable engine handle — rearming or
     disarming leaves no zombie event in the queue. *)
  rto_timer : Engine.Timer.t;
  (* Receiver variables. *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list; (* disjoint sorted [start, stop) *)
  (* Bookkeeping. *)
  started_at : Time.t;
  mutable completed_at : Time.t option;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable on_complete : (t -> unit) option;
}

let clock_granularity = 0.001 (* seconds *)
let max_rto = Time.s 60

(* Stdlib's [max] and [min] on floats, NaN cases included, with the
   comparison typed: a float compare, not the polymorphic runtime one. *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

(* CUBIC constants (Ha, Rhee, Xu): scaling factor and multiplicative
   decrease, as in Linux. *)
let cubic_c = 0.4
let cubic_beta = 0.7

(* ---- Packet construction ---- *)

let src_host t = Endpoint.host t.src
let dst_host t = Endpoint.host t.dst

(* Journal label; only built when the journal is enabled (call sites
   guard), so the formatting never costs the hot path anything. *)
(* planck-lint: allow hot-alloc -- every caller guards with Journal.enabled *)
let flow_label t = Format.asprintf "%a" Flow_key.pp t.data_key

let data_packet t ~seq ~len ~flags =
  match Host.arp_lookup (src_host t) (Host.ip (dst_host t)) with
  | None -> None
  | Some dst_mac ->
      Some
        (Packet.tcp
           ~src_mac:(Host.mac (src_host t))
           ~dst_mac
           ~src_ip:(Host.ip (src_host t))
           ~dst_ip:(Host.ip (dst_host t))
           ~src_port:t.data_key.Flow_key.src_port
           ~dst_port:t.data_key.Flow_key.dst_port ~seq:(Seq32.wrap seq)
           ~ack_seq:0 ~flags ~payload_len:len ())

let ack_packet t ?(latest = -1) ~ack_seq ~flags () =
  match Host.arp_lookup (dst_host t) (Host.ip (src_host t)) with
  | None -> None
  | Some dst_mac ->
      (* Up to three out-of-order ranges ride along as SACK blocks, the
         one containing the most recent arrival first (so the sender's
         picture densifies as packets land). *)
      let ordered =
        if latest < 0 then t.ooo
        else
          let containing, others =
            List.partition (fun (a, b) -> a <= latest && latest < b) t.ooo
          in
          containing @ List.filter (fun (a, _) -> a > latest) others
          @ List.filter (fun (a, _) -> a <= latest) others
      in
      let sack =
        List.filteri
          (fun i _ -> i < Headers.Tcp.max_sack_blocks)
          (List.map (fun (a, b) -> (Seq32.wrap a, Seq32.wrap b)) ordered)
      in
      Some
        (Packet.tcp
           ~src_mac:(Host.mac (dst_host t))
           ~dst_mac
           ~src_ip:(Host.ip (dst_host t))
           ~dst_ip:(Host.ip (src_host t))
           ~src_port:t.data_key.Flow_key.dst_port
           ~dst_port:t.data_key.Flow_key.src_port ~seq:0
           ~ack_seq:(Seq32.wrap ack_seq) ~flags ~sack ~payload_len:0 ())

(* ---- Retransmission timer ---- *)

let flight t = t.snd_nxt - t.snd_una

(* ---- SACK scoreboard ----

   [sacked] holds the receiver-reported ranges above snd_una. Following
   RFC 6675's IsLost rule, an un-SACKed octet counts as lost once at
   least 3 MSS of data above it has been SACKed; lost octets below
   [retx_next] have been retransmitted (so they are back in the pipe),
   lost octets above it have not. *)

let sacked_bytes_in t a b =
  List.fold_left
    (fun acc (x, y) ->
      let x = Int.max x a and y = Int.min y b in
      if y > x then acc + (y - x) else acc)
    0 t.sacked

let sacked_bytes t = sacked_bytes_in t t.snd_una t.snd_max

let highest_sacked t =
  List.fold_left (fun acc (_, b) -> Int.max acc b) t.snd_una t.sacked

let lost_cutoff t = highest_sacked t - (3 * t.params.mss)

let unsacked_bytes_in t a b =
  if b <= a then 0 else b - a - sacked_bytes_in t a b

(* Outstanding data the network still holds: in-flight bytes minus
   SACKed bytes minus estimated-lost bytes not yet retransmitted. *)
let pipe t =
  let lost_unretx =
    unsacked_bytes_in t (Int.max t.snd_una t.retx_next) (lost_cutoff t)
  in
  flight t - sacked_bytes t - lost_unretx

let prune_sacked t =
  t.sacked <-
    List.filter_map
      (fun (a, b) ->
        if b <= t.snd_una then None else Some (Int.max a t.snd_una, b))
      t.sacked

(* Lowest estimated-lost, not-yet-retransmitted hole. *)
let next_hole t =
  let start = Int.max t.snd_una t.retx_next in
  let cutoff = Int.min (lost_cutoff t) t.recover in
  let rec scan p = function
    | [] -> if p < cutoff then Some p else None
    | (a, b) :: rest ->
        if p < a then if p < cutoff then Some p else None
        else scan (Int.max p b) rest
  in
  scan start t.sacked

let cubic_on_loss t =
  let mss = float_of_int t.params.mss in
  let w = t.cwnd /. mss in
  (* Fast convergence: release bandwidth faster when the window is
     still below its previous maximum. *)
  t.cubic_w_max <-
    (if w < t.cubic_w_max then w *. (1.0 +. cubic_beta) /. 2.0 else w);
  t.cubic_epoch <- -1;
  fmax (t.cwnd *. cubic_beta) (2.0 *. mss)

let rec arm_timer t = Engine.Timer.reschedule t.rto_timer ~delay:t.rto
and disarm_timer t = Engine.Timer.cancel t.rto_timer

(* ---- RTO computation ---- *)

and update_rtt t sample_s =
  if t.srtt < 0.0 then begin
    t.srtt <- sample_s;
    t.rttvar <- sample_s /. 2.0
  end
  else begin
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. abs_float (t.srtt -. sample_s));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample_s)
  end;
  t.min_rtt <- fmin t.min_rtt sample_s;
  (* HyStart (delay-based): leave slow start as soon as the RTT shows
     queue build-up, instead of overshooting until mass loss. The
     300 us threshold sits well above the host-stack jitter floor
     (~60 us) and well below the delay of a harmful standing queue. *)
  if
    t.cwnd < t.ssthresh
    && sample_s >= t.min_rtt +. fmax 0.0003 (t.min_rtt /. 8.0)
  then t.ssthresh <- t.cwnd;
  let rto_s = t.srtt +. fmax clock_granularity (4.0 *. t.rttvar) in
  t.rto <- Int.max t.params.min_rto (Int.min max_rto (Time.of_float_s rto_s))

(* ---- Sending ---- *)

and insert_sorted intervals (start, stop) =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) ((start, stop) :: intervals)
  in
  let rec coalesce = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 ->
        coalesce ((a1, Int.max b1 b2) :: rest)
    | interval :: rest -> interval :: coalesce rest
    | [] -> []
  in
  coalesce sorted

and transmit_segment t ~seq ~len ~retransmission =
  (match t.rtt_probe with
  | Some (probe_ack, _) when retransmission && seq < probe_ack ->
      (* Karn's rule: a retransmission below the probed ack invalidates
         the outstanding RTT sample. *)
      t.rtt_probe <- None
  | Some _ | None -> ());
  if (not retransmission) && t.rtt_probe = None then
    t.rtt_probe <- Some (seq + len, Engine.now t.engine);
  match data_packet t ~seq ~len ~flags:Headers.Tcp_flags.ack with
  | None -> ()
  | Some packet ->
      if retransmission then begin
        t.retransmits <- t.retransmits + 1;
        if Journal.enabled Journal.default then
          Journal.record Journal.default ~ts:(Engine.now t.engine)
            (Journal.Tcp_retransmit { flow = flow_label t; seq })
      end;
      Host.send (src_host t) packet

and send_new_data t ~window =
  let len = Int.min t.params.mss (t.fin - t.snd_nxt) in
  if len > 0 && pipe t + len <= window then begin
    (* Below snd_max this is a post-rewind resend, not new data. *)
    transmit_segment t ~seq:t.snd_nxt ~len
      ~retransmission:(t.snd_nxt < t.snd_max);
    t.snd_nxt <- t.snd_nxt + len;
    t.snd_max <- Int.max t.snd_max t.snd_nxt;
    true
  end
  else false

(* RFC 6675-style recovery: fill the lowest holes first, then new data,
   keeping pipe under cwnd. *)
and send_in_recovery t ~window =
  let progress = ref true in
  while !progress do
    progress := false;
    if pipe t + t.params.mss <= window then begin
      match next_hole t with
      | Some hole ->
          let len = Int.min t.params.mss (t.fin - hole) in
          if len > 0 then begin
            transmit_segment t ~seq:hole ~len ~retransmission:true;
            (* Advancing retx_next moves the hole back into the pipe. *)
            t.retx_next <- hole + len;
            progress := true
          end
      | None -> progress := send_new_data t ~window
    end
  done

and try_send t =
  if t.phase = Established then begin
    let window = Int.min (int_of_float t.cwnd) t.params.max_flight in
    if t.in_recovery then send_in_recovery t ~window
    else begin
      let continue = ref true in
      while !continue do
        continue := send_new_data t ~window
      done
    end;
    if flight t > 0 && not (Engine.Timer.pending t.rto_timer) then
      arm_timer t
  end

(* ---- Timeout ---- *)

and on_timeout t =
  if t.phase = Syn_sent then begin
    (* Lost SYN (or SYN-ACK): retry the handshake. *)
    t.timeouts <- t.timeouts + 1;
    t.rto <- Int.min max_rto (2 * t.rto);
    send_syn t
  end
  else if t.phase = Established && flight t > 0 then begin
    t.timeouts <- t.timeouts + 1;
    if Journal.enabled Journal.default then
      Journal.record Journal.default ~ts:(Engine.now t.engine)
        (Journal.Tcp_timeout { flow = flow_label t; rto_ns = t.rto });
    let mss = float_of_int t.params.mss in
    t.ssthresh <- cubic_on_loss t;
    t.cwnd <- mss;
    t.in_recovery <- false;
    t.dupacks <- 0;
    t.sacked <- [];
    t.retx_next <- 0;
    t.rto <- Int.min max_rto (2 * t.rto);
    (* Go-back-N: rewind and resend from the last cumulative ack. *)
    let len = Int.min t.params.mss (t.fin - t.snd_una) in
    t.snd_nxt <- t.snd_una + len;
    transmit_segment t ~seq:t.snd_una ~len ~retransmission:true;
    arm_timer t
  end

(* ---- Handshake ---- *)

and send_syn t =
  (match data_packet t ~seq:t.isn ~len:0 ~flags:Headers.Tcp_flags.syn with
  | None -> ()
  | Some packet -> Host.send (src_host t) packet);
  arm_timer t

(* ---- Completion ---- *)

let complete t =
  if t.completed_at = None then begin
    t.completed_at <- Some (Engine.now t.engine);
    t.phase <- Done;
    disarm_timer t;
    (* Close the connection: the FIN also tells Planck collectors the
       flow ended (preferentially sampled under §9.2). *)
    (match data_packet t ~seq:t.fin ~len:0 ~flags:Headers.Tcp_flags.fin_ack with
    | Some packet -> Host.send (src_host t) packet
    | None -> ());
    match t.on_complete with
    | None -> ()
    | Some f ->
        t.on_complete <- None;
        f t
  end

(* ---- Sender: ACK processing ---- *)

let enter_recovery t =
  if Journal.enabled Journal.default then
    Journal.record Journal.default ~ts:(Engine.now t.engine)
      (Journal.Tcp_recovery_enter { flow = flow_label t });
  t.ssthresh <- cubic_on_loss t;
  t.recover <- t.snd_nxt;
  t.in_recovery <- true;
  t.cwnd <- t.ssthresh;
  t.retx_next <- t.snd_una;
  try_send t

let on_new_ack t ack =
  let newly = ack - t.snd_una in
  t.snd_una <- ack;
  (* After an RTO rewind an ack may cover bytes above snd_nxt. *)
  if ack > t.snd_nxt then t.snd_nxt <- ack;
  t.dupacks <- 0;
  (match t.rtt_probe with
  | Some (probe_ack, sent_at) when ack >= probe_ack ->
      t.rtt_probe <- None;
      update_rtt t (Time.to_float_s (Engine.now t.engine - sent_at))
  | Some _ | None -> ());
  let mss = float_of_int t.params.mss in
  prune_sacked t;
  if t.in_recovery then begin
    if ack >= t.recover then begin
      (* Full acknowledgment: leave recovery. *)
      t.in_recovery <- false;
      t.cwnd <- t.ssthresh
    end
    else
      (* Partial ack: holes are retransmitted once per recovery
         (monotone retx_next); a re-lost retransmission waits for the
         RTO, as in RFC 6675. *)
      t.retx_next <- Int.max t.retx_next t.snd_una
  end
  else if t.cwnd < t.ssthresh then
    (* Slow start: one MSS per ACK (the receiver acks every segment). *)
    t.cwnd <- t.cwnd +. mss
  else begin
    (* CUBIC congestion avoidance: chase the cubic curve anchored at
       the window where the last loss happened. *)
    let w = t.cwnd /. mss in
    if t.cubic_epoch < 0 then begin
      t.cubic_epoch <- Engine.now t.engine;
      t.cubic_epoch_w <- w;
      if t.cubic_w_max > w then begin
        t.cubic_k <-
          Float.cbrt ((t.cubic_w_max -. w) /. cubic_c);
        t.cubic_origin <- t.cubic_w_max
      end
      else begin
        t.cubic_k <- 0.0;
        t.cubic_origin <- w
      end
    end;
    let elapsed =
      Time.to_float_s (Engine.now t.engine - t.cubic_epoch)
      +. (if t.srtt > 0.0 then t.srtt else 0.0)
    in
    let d = elapsed -. t.cubic_k in
    let cubic_target = t.cubic_origin +. (cubic_c *. d *. d *. d) in
    (* TCP-friendly region: at small RTTs the AIMD estimate dominates
       the cubic curve, keeping growth Reno-like (Linux does the
       same). *)
    let rtt = if t.srtt > 0.0 then t.srtt else 0.001 in
    let w_est =
      t.cubic_epoch_w
      +. (3.0 *. (1.0 -. cubic_beta) /. (1.0 +. cubic_beta)
          *. (elapsed /. rtt))
    in
    let target = fmax cubic_target w_est in
    if target > w then t.cwnd <- t.cwnd +. (mss *. (target -. w) /. w)
    else t.cwnd <- t.cwnd +. (mss *. 0.01 /. w)
  end;
  t.cwnd <- fmin t.cwnd (float_of_int t.params.max_flight);
  ignore newly;
  if t.snd_una >= t.fin then complete t
  else begin
    if flight t > 0 then arm_timer t else disarm_timer t;
    try_send t
  end

let on_dup_ack t =
  if t.in_recovery then try_send t
  else begin
    t.dupacks <- t.dupacks + 1;
    (* Enter recovery on the third dupack, or earlier if SACK already
       reports more than three segments' worth above a hole. *)
    if
      flight t > 0
      && (t.dupacks >= 3 || sacked_bytes t > 3 * t.params.mss)
    then enter_recovery t
  end

let sender_receive t (packet : Packet.t) =
  match packet with
  | Udp _ | Arp _ -> ()
  | Tcp { flags; ack_seq; sack; _ } ->
      if t.phase = Syn_sent && Headers.Tcp_flags.has_syn flags
         && Headers.Tcp_flags.has_ack flags
      then begin
        t.phase <- Established;
        disarm_timer t;
        (match t.rtt_probe with
        | Some (_, sent_at) ->
            t.rtt_probe <- None;
            update_rtt t (Time.to_float_s (Engine.now t.engine - sent_at))
        | None -> ());
        try_send t
      end
      else if t.phase = Established && Headers.Tcp_flags.has_ack flags then begin
        let ack = Seq32.unwrap ~base:t.snd_una ack_seq in
        List.iter
          (fun (a32, b32) ->
            let a = Seq32.unwrap ~base:t.snd_una a32 in
            let b = a + (Seq32.delta ~prev:a32 ~cur:b32) in
            if b > a && a >= t.snd_una && b <= t.snd_max then
              t.sacked <- insert_sorted t.sacked (a, b))
          sack;
        if ack > t.snd_una && ack <= t.snd_max then on_new_ack t ack
        else if ack = t.snd_una && flight t > 0 then on_dup_ack t
      end

(* ---- Receiver ---- *)

(* Insert and coalesce into a sorted disjoint interval list. *)
let insert_interval intervals (start, stop) =
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      ((start, stop) :: intervals)
  in
  let rec coalesce = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 ->
        coalesce ((a1, Int.max b1 b2) :: rest)
    | interval :: rest -> interval :: coalesce rest
    | [] -> []
  in
  coalesce sorted

let send_ack t ?latest ~flags () =
  match ack_packet t ?latest ~ack_seq:t.rcv_nxt ~flags () with
  | None -> ()
  | Some packet -> Host.send (dst_host t) packet

(* Pull every out-of-order interval now contiguous with rcv_nxt. *)
let rec drain_contiguous t =
  match t.ooo with
  | (start, stop) :: rest when start <= t.rcv_nxt ->
      if stop > t.rcv_nxt then t.rcv_nxt <- stop;
      t.ooo <- rest;
      drain_contiguous t
  | _ -> ()

let receiver_receive t (packet : Packet.t) =
  match packet with
  | Udp _ | Arp _ -> ()
  | Tcp { flags; seq; _ } ->
      if Headers.Tcp_flags.has_syn flags then
        send_ack t ~flags:Headers.Tcp_flags.syn_ack ()
      else begin
        let len = Packet.tcp_payload_len packet in
        if len > 0 then begin
          let seq = Seq32.unwrap ~base:t.rcv_nxt seq in
          let stop = seq + len in
          if seq <= t.rcv_nxt && stop > t.rcv_nxt then begin
            t.rcv_nxt <- stop;
            drain_contiguous t
          end
          else if seq > t.rcv_nxt then
            t.ooo <- insert_interval t.ooo (seq, stop);
          send_ack t ~latest:seq ~flags:Headers.Tcp_flags.ack ()
        end
      end

(* ---- Construction ---- *)

let start ~src ~dst ~src_port ~dst_port ~size ?(params = default_params)
    ?on_complete () =
  if size <= 0 then invalid_arg "Flow.start: size must be positive";
  let src_h = Endpoint.host src and dst_h = Endpoint.host dst in
  if Host.arp_lookup src_h (Host.ip dst_h) = None then
    invalid_arg "Flow.start: source cannot resolve destination (ARP)";
  let engine = Endpoint.engine src in
  let data_key =
    {
      Flow_key.src_ip = Host.ip src_h;
      dst_ip = Host.ip dst_h;
      src_port;
      dst_port;
      protocol = Headers.Ipv4.protocol_tcp;
    }
  in
  let t =
    {
      engine;
      params;
      src;
      dst;
      data_key;
      flow_size = size;
      isn = params.isn;
      fin = params.isn + size;
      phase = (if params.handshake then Syn_sent else Established);
      snd_una = params.isn;
      snd_nxt = params.isn;
      snd_max = params.isn;
      cwnd = float_of_int (params.initial_window * params.mss);
      ssthresh = infinity;
      dupacks = 0;
      in_recovery = false;
      recover = params.isn;
      sacked = [];
      retx_next = params.isn;
      srtt = -1.0;
      rttvar = 0.0;
      min_rtt = infinity;
      cubic_epoch = -1;
      cubic_w_max = 0.0;
      cubic_k = 0.0;
      cubic_origin = 0.0;
      cubic_epoch_w = 0.0;
      rto = Int.max params.min_rto (Time.ms 1000);
      rtt_probe = None;
      rto_timer = Engine.Timer.create engine ignore;
      rcv_nxt = params.isn;
      ooo = [];
      started_at = Engine.now engine;
      completed_at = None;
      retransmits = 0;
      timeouts = 0;
      on_complete;
    }
  in
  Engine.Timer.set_callback t.rto_timer (fun () -> on_timeout t);
  (* ACKs arrive at the source with the reversed key; data arrives at
     the destination with the data key. *)
  Endpoint.register src (Flow_key.reverse data_key) (sender_receive t);
  Endpoint.register dst data_key (receiver_receive t);
  if params.handshake then begin
    t.rtt_probe <- Some (0, Engine.now engine);
    send_syn t
  end
  else try_send t;
  t

(* ---- Accessors ---- *)

let key t = t.data_key
let size t = t.flow_size
let completed t = t.completed_at <> None
let started_at t = t.started_at
let completed_at t = t.completed_at
let bytes_acked t = Int.min (t.snd_una - t.isn) t.flow_size

let goodput t =
  match t.completed_at with
  | None -> None
  | Some finish ->
      let elapsed = finish - t.started_at in
      if elapsed <= 0 then None
      else Some (Rate.of_bytes_per t.flow_size elapsed)


let retransmits t = t.retransmits
let timeouts t = t.timeouts
let cwnd_bytes t = int_of_float t.cwnd
