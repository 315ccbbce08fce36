(* Tests for the discrete-event substrate: engine, shared buffer pool,
   transmitters, switch forwarding/mirroring, host ARP semantics, and
   the netmap-style sink. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Engine = Planck_netsim.Engine
module Buffer_pool = Planck_netsim.Buffer_pool
module Txport = Planck_netsim.Txport
module Switch = Planck_netsim.Switch
module Host = Planck_netsim.Host
module Sink = Planck_netsim.Sink
module P = Planck_packet.Packet
module H = Planck_packet.Headers
module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr
module FK = Planck_packet.Flow_key
module Metrics = Planck_telemetry.Metrics

let mk_tcp ?(src = 0) ?(dst = 1) ?(seq = 0) ?(payload = 1460) () =
  P.tcp ~src_mac:(Mac.host src) ~dst_mac:(Mac.host dst) ~src_ip:(Ip.host src)
    ~dst_ip:(Ip.host dst) ~src_port:(1000 + src) ~dst_port:(2000 + dst) ~seq
    ~ack_seq:0 ~flags:H.Tcp_flags.ack ~payload_len:payload ()

(* Test frames are told apart by their TCP sequence number. *)
let seq_of p =
  match p with P.Tcp { seq; _ } -> seq | P.Udp _ | P.Arp _ -> -1

(* ---- Engine ---- *)

let engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:(Time.us 30) (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:(Time.us 10) (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:(Time.us 20) (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Time.us 30) (Engine.now e);
  Alcotest.(check int) "count" 3 (Engine.events_processed e)

let engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun i -> Engine.schedule e ~delay:(Time.us 5) (fun () -> log := i :: !log))
    [ 1; 2; 3 ];
  Engine.run e;
  Alcotest.(check (list int)) "FIFO at equal time" [ 1; 2; 3 ] (List.rev !log)

let engine_until () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:(Time.ms 10) (fun () -> fired := true);
  Engine.run ~until:(Time.ms 5) e;
  Alcotest.(check bool) "not yet" false !fired;
  Alcotest.(check int) "clock advanced to horizon" (Time.ms 5) (Engine.now e);
  Engine.run ~until:(Time.ms 20) e;
  Alcotest.(check bool) "fired" true !fired

let engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e ~delay:1 (fun () ->
      incr hits;
      Engine.schedule e ~delay:1 (fun () -> incr hits));
  Engine.run e;
  Alcotest.(check int) "nested event ran" 2 !hits

let engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:(Time.us 10) (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "x") (fun () ->
          try Engine.schedule_at e ~time:(Time.us 5) (fun () -> ())
          with Invalid_argument _ -> raise (Invalid_argument "x")));
  Engine.run e

let engine_every () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.every e ~period:(Time.us 10) ~until:(Time.us 45) (fun () -> incr hits);
  Engine.run e;
  Alcotest.(check int) "4 ticks within horizon" 4 !hits

let engine_timer_cancel () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Engine.Timer.create e (fun () -> incr fired) in
  Alcotest.(check bool) "unarmed at create" false (Engine.Timer.pending t);
  Engine.Timer.reschedule t ~delay:(Time.us 10);
  Alcotest.(check bool) "armed" true (Engine.Timer.pending t);
  Engine.Timer.cancel t;
  Alcotest.(check bool) "disarmed" false (Engine.Timer.pending t);
  Engine.run e;
  Alcotest.(check int) "cancelled timer never fires" 0 !fired;
  Alcotest.(check int) "cancel counted" 1 (Engine.timers_cancelled e);
  (* A cancelled timer is reusable: re-arm and let it fire. *)
  Engine.Timer.reschedule t ~delay:(Time.us 5);
  Engine.run e;
  Alcotest.(check int) "re-armed timer fired" 1 !fired;
  Alcotest.(check bool) "fired means not pending" false (Engine.Timer.pending t)

let engine_timer_reschedule_supersedes () =
  let e = Engine.create () in
  let log = ref [] in
  let t = Engine.Timer.create e (fun () -> log := Engine.now e :: !log) in
  Engine.Timer.reschedule t ~delay:(Time.us 10);
  (* Re-arming replaces the earlier deadline: no zombie fire at 10us. *)
  Engine.Timer.reschedule t ~delay:(Time.us 30);
  Engine.run e;
  Alcotest.(check (list int)) "single fire at new deadline" [ Time.us 30 ]
    !log;
  (* reschedule_at from within a callback: the RTO back-off shape. *)
  Engine.Timer.set_callback t (fun () ->
      log := Engine.now e :: !log;
      if Engine.now e < Time.us 100 then
        Engine.Timer.reschedule_at t ~time:(Time.us 100));
  Engine.Timer.reschedule t ~delay:(Time.us 20);
  Engine.run e;
  Alcotest.(check (list int))
    "chained fires" [ Time.us 100; Time.us 50; Time.us 30 ]
    !log

(* Neither the timer rhythm nor one-shot events allocate per event.
   100,000 fire-and-re-arm rounds of one Engine.Timer (the per-frame
   rhythm of a port's serializer timer), then 100,000 one-shot
   [schedule_at]s of one preallocated closure (a cross-shard arrival's
   shape), each scheduling the next: under one minor word per event,
   dispatch included, once the first round has sized the queue. *)
let engine_timer_rearm_alloc () =
  let e = Engine.create () in
  let rounds = 100_000 in
  let fired = ref 0 in
  let t = Engine.Timer.create e ignore in
  Engine.Timer.set_callback t (fun () ->
      incr fired;
      if !fired < rounds then Engine.Timer.reschedule t ~delay:(Time.ns 100));
  let shots = ref 0 in
  let rec shot () =
    incr shots;
    if !shots < rounds then
      Engine.schedule_at e ~time:(Engine.now e + Time.ns 100) shot
  in
  let measure ~label ~count start =
    start ();
    ignore (Engine.step e : bool);
    let before = Gc.minor_words () in
    Engine.run e;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) (label ^ ": every round fired") rounds !count;
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f words over %d events" label words (rounds - 1))
      true
      (words < float_of_int (rounds - 1))
  in
  measure ~label:"timer re-arm" ~count:fired (fun () ->
      Engine.Timer.reschedule t ~delay:(Time.ns 100));
  measure ~label:"one-shot schedule_at" ~count:shots (fun () ->
      Engine.schedule e ~delay:(Time.ns 100) shot)

let engine_timer_periodic () =
  let e = Engine.create () in
  let hits = ref 0 in
  let t = Engine.periodic e ~period:(Time.us 10) (fun () -> incr hits) in
  Engine.run ~until:(Time.us 35) e;
  Alcotest.(check int) "3 ticks" 3 !hits;
  (* The handle pauses and resumes the stream. *)
  Engine.Timer.cancel t;
  Engine.run ~until:(Time.us 95) e;
  Alcotest.(check int) "paused" 3 !hits;
  Engine.Timer.reschedule t ~delay:(Time.us 10);
  Engine.run ~until:(Time.us 125) e;
  Alcotest.(check int) "resumed at the same period" 6 !hits

(* A labelled engine publishes its high-water and cancellations into
   rows under its label as [run] returns; its events have no row of
   their own and stay out of the label-less count. *)
let engine_instance_metrics () =
  let was = Metrics.enabled Metrics.default in
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset Metrics.default;
      Metrics.set_enabled Metrics.default was)
    (fun () ->
      let e = Engine.create ~label:"tnetsim-metrics" () in
      Alcotest.(check string) "label" "tnetsim-metrics" (Engine.label e);
      for i = 1 to 5 do
        Engine.schedule e ~delay:(Time.us i) (fun () -> ())
      done;
      let tm = Engine.Timer.create e ignore in
      Engine.Timer.reschedule tm ~delay:(Time.us 1);
      Engine.Timer.cancel tm;
      Alcotest.(check int) "pending" 5 (Engine.pending e);
      Engine.run e;
      Alcotest.(check int) "drained" 0 (Engine.pending e);
      Alcotest.(check int) "per-engine high water" 6 (Engine.max_pending e);
      Alcotest.(check int) "processed" 5 (Engine.events_processed e);
      Alcotest.(check int) "cancelled" 1 (Engine.timers_cancelled e);
      let rows =
        List.filter_map
          (fun (r : Metrics.snapshot) ->
            match r.value with
            | Metrics.Counter_value n when r.subsystem = "engine" ->
                Some (r.name, r.label, n)
            | Metrics.Gauge_value { value; max } when r.subsystem = "engine"
              ->
                Alcotest.(check (float 0.0)) "gauge value is its high-water"
                  max value;
                Some (r.name, r.label, int_of_float value)
            | _ -> None)
          (Metrics.snapshot Metrics.default)
      in
      let has name label =
        List.find_opt (fun (n, l, _) -> n = name && l = label) rows
      in
      Alcotest.(check (option (triple string string int)))
        "labelled high-water row"
        (Some ("pending_high_water", "tnetsim-metrics", 6))
        (has "pending_high_water" "tnetsim-metrics");
      Alcotest.(check (option (triple string string int)))
        "labelled cancellations row"
        (Some ("timers_cancelled", "tnetsim-metrics", 1))
        (has "timers_cancelled" "tnetsim-metrics");
      Alcotest.(check (option (triple string string int)))
        "no labelled events row" None
        (has "events_processed" "tnetsim-metrics");
      Alcotest.(check bool) "label-less events untouched" true
        (match has "events_processed" "" with
        | None | Some (_, _, 0) -> true
        | Some _ -> false))

(* A program of one-shots, a twice-rescheduled timer and a periodic
   clock against the order a model gives it: every fire sorted by
   (time, scheduling order). One-shots land both inside the queue's
   4096 ns ring (a few ns apart, with ties) and far past it (on a 10 us
   grid, tied with each other and with the periodic ticks). *)
let engine_fires_in_model_order () =
  let e = Engine.create () in
  let log = ref [] in
  let prng = Prng.create ~seed:42 in
  let delays =
    List.init 50 (fun i ->
        if i mod 3 = 0 then Prng.int prng 8 else Time.us (10 * Prng.int prng 200))
  in
  List.iteri
    (fun i delay ->
      Engine.schedule e ~delay (fun () -> log := (i + 1, Engine.now e) :: !log))
    delays;
  let rto = Engine.Timer.create e (fun () -> log := (99, Engine.now e) :: !log) in
  Engine.Timer.reschedule rto ~delay:(Time.us 1700);
  Engine.Timer.reschedule rto ~delay:(Time.us 900);
  Engine.every e ~period:(Time.us 100) ~until:(Time.ms 1) (fun () ->
      log := (0, Engine.now e) :: !log);
  Engine.run e;
  (* (time, seq, label): the one-shots take seqs 0-49, the timer's
     final arming 51, and each periodic tick re-arms from the tick
     before, after all of those. *)
  let model =
    List.mapi (fun i delay -> (delay, i, i + 1)) delays
    @ [ (Time.us 900, 51, 99) ]
    @ List.init 10 (fun k -> (Time.us (100 * (k + 1)), 52 + k, 0))
  in
  let expected =
    List.map (fun (time, _, label) -> (label, time)) (List.sort compare model)
  in
  Alcotest.(check (list (pair int int)))
    "fire order" expected (List.rev !log);
  Alcotest.(check int) "clock at the last fire"
    (List.fold_left (fun acc (_, time) -> max acc time) 0 expected)
    (Engine.now e);
  Alcotest.(check int) "events" (List.length expected)
    (Engine.events_processed e)

(* ---- Buffer pool ---- *)

let pool_reservation () =
  let p = Buffer_pool.create ~total:1000 ~reservation:100 ~alpha:1.0 ~ports:4 in
  (* Static region is per-port guaranteed even under full shared use. *)
  Alcotest.(check bool) "alloc within reservation" true
    (Buffer_pool.try_alloc p ~port:0 ~bytes_:100);
  Alcotest.(check int) "shared untouched" 0 (Buffer_pool.shared_used p);
  Alcotest.(check bool) "beyond reservation draws shared" true
    (Buffer_pool.try_alloc p ~port:0 ~bytes_:100);
  Alcotest.(check int) "shared used" 100 (Buffer_pool.shared_used p)

let pool_dt_limits_single_port () =
  (* With alpha = 1, one queue can take at most half the shared region:
     q <= alpha * (S - q). *)
  let p = Buffer_pool.create ~total:1000 ~reservation:0 ~alpha:1.0 ~ports:4 in
  let admitted = ref 0 in
  for _ = 1 to 100 do
    if Buffer_pool.try_alloc p ~port:0 ~bytes_:10 then
      admitted := !admitted + 10
  done;
  Alcotest.(check int) "single queue capped at half" 500 !admitted;
  (* A second port still gets space. *)
  Alcotest.(check bool) "other port admitted" true
    (Buffer_pool.try_alloc p ~port:1 ~bytes_:10)

let pool_release () =
  let p = Buffer_pool.create ~total:1000 ~reservation:0 ~alpha:1.0 ~ports:2 in
  Alcotest.(check bool) "alloc" true (Buffer_pool.try_alloc p ~port:0 ~bytes_:400);
  Buffer_pool.release p ~port:0 ~bytes_:400;
  Alcotest.(check int) "all returned" 0 (Buffer_pool.total_used p);
  Alcotest.check_raises "over-release" (Invalid_argument "x") (fun () ->
      try Buffer_pool.release p ~port:0 ~bytes_:1
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let pool_port_cap () =
  let p = Buffer_pool.create ~total:1000 ~reservation:0 ~alpha:1.0 ~ports:2 in
  Buffer_pool.set_port_cap p ~port:0 (Some 50);
  Alcotest.(check bool) "under cap" true
    (Buffer_pool.try_alloc p ~port:0 ~bytes_:50);
  Alcotest.(check bool) "over cap rejected" false
    (Buffer_pool.try_alloc p ~port:0 ~bytes_:1)

let pool_conservation_qcheck =
  QCheck.Test.make ~name:"buffer pool conserves bytes under random ops"
    ~count:100
    QCheck.(list (pair (int_range 0 3) (int_range 1 200)))
    (fun ops ->
      let p =
        Buffer_pool.create ~total:2000 ~reservation:50 ~alpha:0.8 ~ports:4
      in
      let held = Array.make 4 0 in
      List.iter
        (fun (port, n) ->
          if n mod 3 = 0 && held.(port) > 0 then begin
            let release = min held.(port) n in
            Buffer_pool.release p ~port ~bytes_:release;
            held.(port) <- held.(port) - release
          end
          else if Buffer_pool.try_alloc p ~port ~bytes_:n then
            held.(port) <- held.(port) + n)
        ops;
      Buffer_pool.total_used p = Array.fold_left ( + ) 0 held
      && Buffer_pool.total_used p <= Buffer_pool.capacity p
      && Array.for_all
           (fun port -> Buffer_pool.port_used p ~port = held.(port))
           [| 0; 1; 2; 3 |])

(* ---- Txport ---- *)

let txport_serialization_timing () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let tx =
    Txport.create e ~rate:(Rate.gbps 10.0) ~prop_delay:(Time.ns 300)
      ~classes:1
      ~deliver:(fun p -> arrivals := (Engine.now e, seq_of p) :: !arrivals)
      ~on_depart:(fun _ -> ())
      ()
  in
  let p1 = mk_tcp ~seq:1 () and p2 = mk_tcp ~seq:2 () in
  Txport.enqueue tx ~cls:0 p1;
  Txport.enqueue tx ~cls:0 p2;
  Engine.run e;
  (* 1514 B at 10 Gbps = 1211.2 ns -> 1212 ns, + 300 ns propagation. *)
  let arrivals = List.rev !arrivals in
  Alcotest.(check int) "first arrival" 1512 (fst (List.nth arrivals 0));
  Alcotest.(check int) "second arrival" (1512 + 1212)
    (fst (List.nth arrivals 1));
  Alcotest.(check int) "order" 1 (snd (List.nth arrivals 0))

let txport_round_robin () =
  let e = Engine.create () in
  let order = ref [] in
  let tx =
    Txport.create e ~rate:(Rate.gbps 10.0) ~prop_delay:0 ~classes:3
      ~deliver:(fun p -> order := seq_of p :: !order)
      ~on_depart:(fun _ -> ())
      ()
  in
  (* Fill class 0 with 3 frames, classes 1 and 2 with 1 each, before
     the serializer runs: schedule enqueues at t=0 inside the engine. *)
  let a1 = mk_tcp ~seq:1 () and a2 = mk_tcp ~seq:2 () in
  let a3 = mk_tcp ~seq:3 () and b = mk_tcp ~seq:4 () and c = mk_tcp ~seq:5 () in
  Engine.schedule e ~delay:0 (fun () ->
      Txport.enqueue tx ~cls:0 a1;
      Txport.enqueue tx ~cls:0 a2;
      Txport.enqueue tx ~cls:0 a3;
      Txport.enqueue tx ~cls:1 b;
      Txport.enqueue tx ~cls:2 c);
  Engine.run e;
  (* a1 starts immediately; then round-robin picks 1, 2, 0, 0. *)
  Alcotest.(check (list int)) "round robin interleave"
    (List.map seq_of [ a1; b; c; a2; a3 ])
    (List.rev !order)

(* Random enqueue bursts on a 1-class, a 3-class round-robin and a
   3-class port with a strict-priority class. Bursts of up to 40 frames
   grow the port's ring past its first capacities, and the gaps between
   them let it drain, so its cursors wrap many times. Checked: frames of
   one class are delivered in enqueue order, each delivery lands exactly
   [prop_delay] after its frame left the serializer, and after every
   event [held_bytes] is the bytes enqueued and not yet departed (the
   waiting frames plus the one on the serializer). *)
let txport_bursts_qcheck =
  let burst = QCheck.(pair (int_bound 20_000) (list_of_size Gen.(int_range 1 40) (pair (int_bound 2) (int_bound 1460)))) in
  QCheck.Test.make
    ~name:"txport: class FIFO, exact delivery, held bytes under bursts"
    ~count:120
    QCheck.(pair (int_bound 2) (list_of_size Gen.(int_range 1 25) burst))
    (fun (kind, bursts) ->
      let e = Engine.create () in
      let prop_delay = Time.ns 700 in
      let classes, priority_class =
        match kind with 0 -> (1, None) | 1 -> (3, None) | _ -> (3, Some 2)
      in
      let n = List.fold_left (fun acc (_, fs) -> acc + List.length fs) 0 bursts in
      let cls_of = Array.make n 0 and departed_at = Array.make n (-1) in
      let delivered = Array.make classes [] in
      let held = ref 0 and ok = ref true in
      let tx =
        Txport.create e ~rate:(Rate.gbps 10.0) ~prop_delay ~classes
          ?priority_class
          ~deliver:(fun p ->
            let id = seq_of p in
            if Engine.now e <> departed_at.(id) + prop_delay then ok := false;
            delivered.(cls_of.(id)) <- id :: delivered.(cls_of.(id)))
          ~on_depart:(fun p ->
            departed_at.(seq_of p) <- Engine.now e;
            held := !held - P.wire_size p)
          ()
      in
      let next = ref 0 and at = ref 0 in
      List.iter
        (fun (gap, frames) ->
          at := !at + gap;
          let frames =
            List.map
              (fun (c, payload) ->
                let c = if classes = 1 then 0 else c in
                let id = !next in
                incr next;
                cls_of.(id) <- c;
                (c, mk_tcp ~seq:id ~payload ()))
              frames
          in
          Engine.schedule_at e ~time:!at (fun () ->
              List.iter
                (fun (cls, p) ->
                  Txport.enqueue tx ~cls p;
                  held := !held + P.wire_size p)
                frames))
        bursts;
      while Engine.step e do
        if Txport.held_bytes tx <> !held then ok := false
      done;
      let in_order c =
        List.rev delivered.(c)
        = List.filter (fun id -> cls_of.(id) = c) (List.init n Fun.id)
      in
      !ok && !held = 0
      && Txport.held_bytes tx = 0
      && Txport.tx_packets tx = n
      && List.for_all in_order (List.init classes Fun.id))

(* A cross-shard port hands every frame, in order, to its channel with
   its arrival time, delivers none itself, and keeps none reachable
   once it has handed it on: its ring grows by two 33-word arrays at
   20 frames, while the 20 frames would add over 200 words. *)
let txport_handoff () =
  let e = Engine.create () in
  let prop_delay = Time.us 5 and n = 20 in
  (* Preallocated, so the closures' reach does not grow in the run. *)
  let handed_at = Array.make n (-1) and handed = Array.make n (-1) in
  let departed = Array.make n (-1) and count = ref 0 in
  let tx =
    Txport.create e ~rate:(Rate.gbps 10.0) ~prop_delay ~classes:1
      ~handoff:(fun ready p ->
        handed_at.(!count) <- ready;
        handed.(!count) <- seq_of p;
        incr count)
      ~deliver:(fun _ -> Alcotest.fail "handoff port delivered locally")
      ~on_depart:(fun p -> departed.(seq_of p) <- Engine.now e)
      ()
  in
  Engine.run e;
  let empty = Obj.reachable_words (Obj.repr tx) in
  for seq = 0 to n - 1 do
    Txport.enqueue tx ~cls:0 (mk_tcp ~seq ~payload:(70 * seq) ())
  done;
  Engine.run e;
  Alcotest.(check (array int)) "every frame handed in order"
    (Array.init n Fun.id) handed;
  Alcotest.(check (array int)) "arrival = departure + prop_delay"
    (Array.map (fun at -> at + prop_delay) departed)
    handed_at;
  Alcotest.(check int) "holds nothing" 0 (Txport.held_bytes tx);
  let grown = Obj.reachable_words (Obj.repr tx) - empty in
  if grown > 4 * n then
    Alcotest.failf "handoff port grew %d words over %d handed frames" grown n

(* A drained port keeps no frame reachable: after a 1,000-frame burst
   its reachable size may grow by its ring and class-queue arrays (at
   most 4 words per burst frame here), while the frames themselves, had
   any cell kept one, would add over 10 words each. *)
let txport_drained_burst_retains_nothing () =
  List.iter
    (fun classes ->
      let e = Engine.create () in
      let delivered = ref 0 in
      let tx =
        Txport.create e ~rate:(Rate.gbps 10.0) ~prop_delay:(Time.ns 300)
          ~classes
          ~deliver:(fun _ -> incr delivered)
          ~on_depart:(fun _ -> ())
          ()
      in
      Engine.run e;
      let empty = Obj.reachable_words (Obj.repr tx) in
      let burst = 1_000 in
      for seq = 0 to burst - 1 do
        Txport.enqueue tx ~cls:(seq mod classes) (mk_tcp ~seq ())
      done;
      Engine.run e;
      Alcotest.(check int) "all delivered" burst !delivered;
      let grown = Obj.reachable_words (Obj.repr tx) - empty in
      if grown > 4 * burst then
        Alcotest.failf "%d-class port grew %d words over a drained burst"
          classes grown)
    [ 1; 3 ]

(* ---- Switch ---- *)

let switch_pair engine =
  let config = Switch.default_config in
  let sw = Switch.create engine ~name:"s0" ~ports:4 ~config () in
  let received = Array.make 4 [] in
  for port = 0 to 3 do
    Switch.connect sw ~port ~rate:(Rate.gbps 10.0) ~prop_delay:(Time.ns 300)
      ~deliver:(fun p -> received.(port) <- p :: received.(port))
      ()
  done;
  (sw, received)

let switch_forwards () =
  let e = Engine.create () in
  let sw, received = switch_pair e in
  Switch.add_route sw (Mac.host 1) 1;
  Switch.ingress sw ~port:0 (mk_tcp ());
  Engine.run e;
  Alcotest.(check int) "delivered on port 1" 1 (List.length received.(1));
  Alcotest.(check int) "nothing elsewhere" 0 (List.length received.(2));
  let stats = Switch.port_stats sw ~port:1 in
  Alcotest.(check int) "tx counted" 1 stats.Switch.tx_packets;
  Alcotest.(check int) "tx bytes" 1514 stats.Switch.tx_bytes

let switch_unroutable () =
  let e = Engine.create () in
  let sw, _ = switch_pair e in
  Switch.ingress sw ~port:0 (mk_tcp ());
  Engine.run e;
  Alcotest.(check int) "unroutable counted" 1 (Switch.unroutable_drops sw)

let switch_egress_rewrite () =
  let e = Engine.create () in
  let sw, received = switch_pair e in
  let shadow = Mac.shadow (Mac.host 1) ~alt:2 in
  Switch.add_route sw shadow 1;
  Switch.add_rewrite sw ~from_mac:shadow ~to_mac:(Mac.host 1);
  Switch.ingress sw ~port:0 (mk_tcp ~dst:1 () |> fun p -> P.with_dst_mac p shadow);
  Engine.run e;
  match received.(1) with
  | [ p ] ->
      Alcotest.(check bool) "rewritten to base" true
        (Mac.equal (P.dst_mac p) (Mac.host 1))
  | _ -> Alcotest.fail "expected exactly one delivery"

(* The forwarding and rewrite tables as the API sees them: replace,
   remove, count, miss, including routes for a host's shadow MACs
   (which differ from the base MAC only in the third octet) and a
   removed route's frames counted as unroutable. *)
let switch_route_table () =
  let e = Engine.create () in
  let sw, received = switch_pair e in
  let shadow alt = Mac.shadow (Mac.host 1) ~alt in
  Alcotest.(check (option int)) "empty table misses" None
    (Switch.route sw (Mac.host 1));
  for alt = 0 to 3 do
    Switch.add_route sw (shadow alt) (alt mod 3)
  done;
  Switch.add_route sw (Mac.host 2) 2;
  Alcotest.(check int) "count" 5 (Switch.route_count sw);
  Switch.add_route sw (shadow 3) 1;
  Alcotest.(check int) "replace keeps the count" 5 (Switch.route_count sw);
  Alcotest.(check (list (option int)))
    "lookups" [ Some 0; Some 1; Some 2; Some 1; Some 2; None ]
    (List.map (Switch.route sw)
       [ shadow 0; shadow 1; shadow 2; shadow 3; Mac.host 2; Mac.host 3 ]);
  Switch.remove_route sw (shadow 1);
  Switch.remove_route sw (Mac.host 3);
  Alcotest.(check int) "remove, and remove of a miss" 4
    (Switch.route_count sw);
  Alcotest.(check (option int)) "removed" None (Switch.route sw (shadow 1));
  Alcotest.(check (option int)) "chain neighbour kept" (Some 2)
    (Switch.route sw (shadow 2));
  Alcotest.check_raises "port out of range"
    (Invalid_argument "Switch.add_route: port 4 out of range") (fun () ->
      Switch.add_route sw (Mac.host 5) 4);
  Switch.add_rewrite sw ~from_mac:(shadow 3) ~to_mac:(Mac.host 1);
  Switch.add_rewrite sw ~from_mac:(shadow 3) ~to_mac:(Mac.host 7);
  let frame dst seq = P.with_dst_mac (mk_tcp ~dst:1 ~seq ()) dst in
  Switch.ingress sw ~port:0 (frame (shadow 3) 1);
  Switch.ingress sw ~port:0 (frame (shadow 2) 2);
  Switch.ingress sw ~port:0 (frame (shadow 1) 3);
  Engine.run e;
  let delivered port =
    List.map (fun p -> (seq_of p, Mac.to_string (P.dst_mac p))) received.(port)
  in
  Alcotest.(check (list (pair int string)))
    "latest rewrite applies" [ (1, Mac.to_string (Mac.host 7)) ] (delivered 1);
  Alcotest.(check (list (pair int string)))
    "no rule, no rewrite" [ (2, Mac.to_string (shadow 2)) ] (delivered 2);
  Alcotest.(check int) "removed route drops" 1 (Switch.unroutable_drops sw)

let switch_flow_rewrite () =
  let e = Engine.create () in
  let sw, received = switch_pair e in
  let p = mk_tcp ~dst:1 () in
  let key = Option.get (FK.of_packet p) in
  let shadow = Mac.shadow (Mac.host 1) ~alt:1 in
  Switch.add_route sw (Mac.host 1) 1;
  Switch.add_route sw shadow 2;
  Switch.add_flow_rewrite sw ~key ~to_mac:shadow;
  Switch.ingress sw ~port:0 p;
  (* A different flow is unaffected. *)
  Switch.ingress sw ~port:0 (mk_tcp ~dst:1 ~src:3 ());
  Engine.run e;
  Alcotest.(check int) "rewritten flow took shadow route" 1
    (List.length received.(2));
  Alcotest.(check int) "other flow on base route" 1
    (List.length received.(1));
  Switch.remove_flow_rewrite sw ~key;
  Alcotest.(check int) "rule removed" 0 (Switch.flow_rewrite_count sw)

let switch_mirroring () =
  let e = Engine.create () in
  let sw, received = switch_pair e in
  Switch.add_route sw (Mac.host 1) 1;
  Switch.set_mirror sw ~monitor:3 ~mirrored:[ 0; 1; 2 ];
  Switch.ingress sw ~port:0 (mk_tcp ());
  Engine.run e;
  Alcotest.(check int) "original delivered" 1 (List.length received.(1));
  Alcotest.(check int) "mirror copy delivered" 1 (List.length received.(3));
  Alcotest.(check (option int)) "monitor port" (Some 3)
    (Switch.monitor_port sw);
  Switch.clear_mirror sw;
  Switch.ingress sw ~port:0 (mk_tcp ());
  Engine.run e;
  Alcotest.(check int) "no copy after clear" 1 (List.length received.(3))

let switch_mirror_self_rejected () =
  let e = Engine.create () in
  let sw, _ = switch_pair e in
  Alcotest.check_raises "monitor mirrored" (Invalid_argument "x") (fun () ->
      try Switch.set_mirror sw ~monitor:3 ~mirrored:[ 3 ]
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let switch_drops_when_buffer_full () =
  let e = Engine.create () in
  let config =
    {
      Switch.default_config with
      Switch.buffer_total = 20_000;
      buffer_reservation = 0;
    }
  in
  let sw = Switch.create e ~name:"small" ~ports:2 ~config () in
  for port = 0 to 1 do
    Switch.connect sw ~port ~rate:(Rate.gbps 10.0) ~prop_delay:0
      ~deliver:(fun _ -> ())
      ()
  done;
  Switch.add_route sw (Mac.host 1) 1;
  (* Slam 100 MTU frames in at one instant: the egress drains one per
     1.2 us, so admission control must reject most of them. *)
  Engine.schedule e ~delay:0 (fun () ->
      for i = 0 to 99 do
        Switch.ingress sw ~port:0 (mk_tcp ~seq:(i * 1460) ())
      done);
  Engine.run e;
  Alcotest.(check bool) "data drops recorded" true
    (Switch.total_data_drops sw > 50)

(* The switch's per-port counter vectors, read back as the rows a
   [--metrics-out] snapshot writes: "<switch>.p<port>" per metric. *)
let switch_rows name metric =
  let prefix = name ^ ".p" in
  let n = String.length prefix in
  List.filter_map
    (fun (s : Metrics.snapshot) ->
      if
        s.subsystem = "switch" && s.name = metric
        && String.length s.label > n
        && String.sub s.label 0 n = prefix
      then
        match s.value with
        | Metrics.Counter_value v ->
            let port = String.sub s.label n (String.length s.label - n) in
            Some (int_of_string port, v)
        | Metrics.Gauge_value _ | Metrics.Histogram_value _ -> None
      else None)
    (Metrics.snapshot Metrics.default)
  |> List.sort compare

let switch_metric_rows () =
  let was = Metrics.enabled Metrics.default in
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset Metrics.default;
      Metrics.set_enabled Metrics.default was)
    (fun () ->
      let name = "metric_rows" in
      let e = Engine.create () in
      let config =
        {
          Switch.default_config with
          Switch.buffer_total = 20_000;
          buffer_reservation = 0;
        }
      in
      let sw = Switch.create e ~name ~ports:4 ~config () in
      for port = 0 to 3 do
        Switch.connect sw ~port ~rate:(Rate.gbps 10.0) ~prop_delay:0
          ~deliver:ignore ()
      done;
      Switch.add_route sw (Mac.host 1) 1;
      Switch.set_mirror sw ~monitor:3 ~mirrored:[ 0; 1 ];
      let frames = 100 in
      Engine.schedule e ~delay:0 (fun () ->
          for i = 0 to frames - 1 do
            Switch.ingress sw ~port:0 (mk_tcp ~seq:(i * 1460) ())
          done);
      Engine.run e;
      let stats =
        List.init 4 (fun port -> (port, Switch.port_stats sw ~port))
      in
      let column f = List.map (fun (port, st) -> (port, f st)) stats in
      let rows = Alcotest.(list (pair int int)) in
      let data_drops = column (fun st -> st.Switch.data_drops) in
      let mirror_drops = column (fun st -> st.Switch.mirror_drops) in
      Alcotest.(check bool) "congested: both kinds of drop" true
        (List.assoc 1 data_drops > 0 && List.assoc 3 mirror_drops > 0);
      Alcotest.check rows "data_drops rows = port_stats" data_drops
        (switch_rows name "data_drops");
      Alcotest.check rows "mirror_drops rows = port_stats" mirror_drops
        (switch_rows name "mirror_drops");
      (* Every admitted frame leaves its egress once the run drains. *)
      let enqueued = switch_rows name "enqueued" in
      Alcotest.check rows "enqueued rows = frames sent"
        (column (fun st -> st.Switch.tx_packets))
        enqueued;
      Alcotest.(check int) "port 1: admitted + dropped = offered" frames
        (List.assoc 1 enqueued + List.assoc 1 data_drops);
      (* A later switch reusing the name with more ports shares the
         rows: they grow, and the first switch's counts survive. *)
      ignore (Switch.create e ~name ~ports:6 ~config () : Switch.t);
      let grown = enqueued @ [ (4, 0); (5, 0) ] in
      Alcotest.check rows "counts survive a wider namesake" grown
        (switch_rows name "enqueued");
      Alcotest.check rows "drop rows too" (data_drops @ [ (4, 0); (5, 0) ])
        (switch_rows name "data_drops"))

let switch_inject () =
  let e = Engine.create () in
  let sw, received = switch_pair e in
  Switch.inject sw ~port:2 (mk_tcp ());
  Engine.run e;
  Alcotest.(check int) "packet-out delivered" 1 (List.length received.(2))

(* ---- Host ---- *)

let host_pair () =
  let e = Engine.create () in
  let prng = Prng.create ~seed:5 in
  let a = Host.create e ~id:0 ~prng:(Prng.split prng) () in
  let b = Host.create e ~id:1 ~prng:(Prng.split prng) () in
  Host.connect a ~rate:(Rate.gbps 10.0) ~prop_delay:(Time.ns 300)
    ~deliver:(fun p -> Host.ingress b p);
  Host.connect b ~rate:(Rate.gbps 10.0) ~prop_delay:(Time.ns 300)
    ~deliver:(fun p -> Host.ingress a p);
  (e, a, b)

let host_mac_filter () =
  let e, a, b = host_pair () in
  let got = ref 0 in
  Host.set_receive b (fun _ -> incr got);
  (* Frame addressed to b's MAC: accepted. *)
  Host.send a (mk_tcp ~src:0 ~dst:1 ());
  (* Frame addressed to a shadow MAC that was never rewritten: dropped. *)
  let p = P.with_dst_mac (mk_tcp ~src:0 ~dst:1 ()) (Mac.shadow (Mac.host 1) ~alt:1) in
  Host.send a p;
  Engine.run e;
  Alcotest.(check int) "one accepted" 1 !got;
  Alcotest.(check int) "one filtered" 1 (Host.filtered_frames b)

let host_stack_is_fifo () =
  let e, a, b = host_pair () in
  let order = ref [] in
  Host.set_receive b (fun p ->
      match p with
      | P.Tcp { seq; _ } -> order := seq :: !order
      | P.Udp _ | P.Arp _ -> ());
  for i = 0 to 19 do
    Host.send a (mk_tcp ~seq:(i * 1460) ())
  done;
  Engine.run e;
  Alcotest.(check (list int)) "in-order delivery"
    (List.init 20 (fun i -> i * 1460))
    (List.rev !order)

let host_arp_unicast_request_learns () =
  let e, a, _b = host_pair () in
  (* A spoofed unicast request claiming 10.0.0.9 is at a shadow MAC. *)
  let shadow = Mac.shadow (Mac.host 9) ~alt:2 in
  let request =
    P.arp ~src_mac:shadow ~dst_mac:(Host.mac a)
      {
        H.Arp.op = H.Arp.Request;
        sender_mac = shadow;
        sender_ip = Ip.host 9;
        target_mac = Host.mac a;
        target_ip = Host.ip a;
      }
  in
  Host.ingress a request;
  Engine.run e;
  Alcotest.(check bool) "cache updated" true
    (Host.arp_lookup a (Ip.host 9) = Some shadow)

let host_arp_ignores_unsolicited_reply () =
  let e, a, _b = host_pair () in
  Host.arp_set a (Ip.host 9) (Mac.host 9);
  let reply =
    P.arp ~src_mac:(Mac.host 3) ~dst_mac:(Host.mac a)
      {
        H.Arp.op = H.Arp.Reply;
        sender_mac = Mac.shadow (Mac.host 9) ~alt:1;
        sender_ip = Ip.host 9;
        target_mac = Host.mac a;
        target_ip = Host.ip a;
      }
  in
  Host.ingress a reply;
  Engine.run e;
  Alcotest.(check bool) "cache unchanged" true
    (Host.arp_lookup a (Ip.host 9) = Some (Mac.host 9))

let host_arp_locktime () =
  let e = Engine.create () in
  let stack = { Host.default_stack with Host.arp_locktime = Time.s 1 } in
  let a = Host.create e ~id:0 ~stack ~prng:(Prng.create ~seed:1) () in
  let request mac =
    P.arp ~src_mac:mac ~dst_mac:(Host.mac a)
      {
        H.Arp.op = H.Arp.Request;
        sender_mac = mac;
        sender_ip = Ip.host 9;
        target_mac = Host.mac a;
        target_ip = Host.ip a;
      }
  in
  Host.ingress a (request (Mac.host 9));
  Engine.run e;
  (* A second update inside the locktime is refused. *)
  Host.ingress a (request (Mac.shadow (Mac.host 9) ~alt:1));
  Engine.run e;
  Alcotest.(check bool) "locktime blocks update" true
    (Host.arp_lookup a (Ip.host 9) = Some (Mac.host 9));
  (* An implicit neighbour entry counts as updated when the neighbours
     were set (t = 0), like a pre-filled static table. *)
  let e = Engine.create () in
  let b = Host.create e ~id:0 ~stack ~prng:(Prng.create ~seed:1) () in
  Host.set_neighbours b ~hosts:16;
  let shadow = Mac.shadow (Mac.host 9) ~alt:1 in
  let spoof = request shadow in
  Engine.schedule e ~delay:(Time.ms 500) (fun () -> Host.ingress b spoof);
  Engine.run e;
  Alcotest.(check bool) "implicit entry locked before 1 s" true
    (Engine.now e < Time.s 1
    && Host.arp_lookup b (Ip.host 9) = Some (Mac.host 9));
  Engine.schedule e ~delay:(Time.s 1 - Engine.now e) (fun () ->
      Host.ingress b spoof);
  Engine.run e;
  Alcotest.(check bool) "implicit entry updatable from 1 s" true
    (Host.arp_lookup b (Ip.host 9) = Some shadow)

(* ---- Sink ---- *)

let sink_batches () =
  let e = Engine.create () in
  let got = ref [] in
  let sink =
    Sink.create e ~ring_capacity:16 ~poll_interval:(Time.us 25)
      ~consumer:(fun ~arrival ~rx _ -> got := (arrival, rx) :: !got)
      ()
  in
  Engine.schedule e ~delay:(Time.us 10) (fun () ->
      Sink.ingress sink (mk_tcp ());
      Sink.ingress sink (mk_tcp ~seq:1460 ()));
  Engine.run e;
  Alcotest.(check int) "both consumed" 2 (List.length !got);
  let arrival, rx = List.hd !got in
  Alcotest.(check int) "rx at poll boundary" (Time.us 35) rx;
  Alcotest.(check int) "arrival preserved" (Time.us 10) arrival;
  Alcotest.(check int) "frames seen" 2 (Sink.frames_seen sink)

let sink_ring_overflow () =
  let e = Engine.create () in
  let sink =
    Sink.create e ~ring_capacity:4 ~poll_interval:(Time.ms 1)
      ~consumer:(fun ~arrival:_ ~rx:_ _ -> ())
      ()
  in
  Engine.schedule e ~delay:0 (fun () ->
      for i = 0 to 9 do
        Sink.ingress sink (mk_tcp ~seq:(i * 1460) ())
      done);
  Engine.run e;
  Alcotest.(check int) "ring drops counted" 6 (Sink.ring_drops sink)

let sink_rejects_empty_ring () =
  Alcotest.check_raises "ring_capacity 0"
    (Invalid_argument "Sink.create: ring_capacity <= 0") (fun () ->
      ignore
        (Sink.create (Engine.create ()) ~ring_capacity:0
           ~consumer:(fun ~arrival:_ ~rx:_ _ -> ())
           ()))

(* The mirror sample path hands the delivered frame itself to the
   consumer: once the ring's arrays are sized, accepting and draining
   10,000 frames stays under one minor word per frame, poll timer
   included. *)
let sink_drain_alloc () =
  let e = Engine.create () in
  let frames = 10_000 in
  let consumed = ref 0 in
  let sink =
    Sink.create e ~ring_capacity:frames ~poll_interval:(Time.us 25)
      ~consumer:(fun ~arrival:_ ~rx:_ _ -> incr consumed)
      ()
  in
  let packet = mk_tcp () in
  let fill () =
    for _ = 1 to frames do
      Sink.ingress sink packet
    done;
    Engine.run e
  in
  (* Warm up: the first fill sizes the ring's arrays. *)
  fill ();
  let before = Gc.minor_words () in
  fill ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every frame consumed" (2 * frames) !consumed;
  Alcotest.(check int) "no ring drops" 0 (Sink.ring_drops sink);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d frames" words frames)
    true
    (words < float_of_int frames)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Testbed.case "engine time ordering" `Quick engine_ordering;
    Testbed.case "engine FIFO at equal times" `Quick
      engine_same_time_fifo;
    Testbed.case "engine run until horizon" `Quick engine_until;
    Testbed.case "engine nested scheduling" `Quick
      engine_nested_schedule;
    Testbed.case "engine rejects past events" `Quick engine_rejects_past;
    Testbed.case "engine periodic events" `Quick engine_every;
    Testbed.case "engine timer cancel and reuse" `Quick
      engine_timer_cancel;
    Testbed.case "engine timer reschedule supersedes" `Quick
      engine_timer_reschedule_supersedes;
    Testbed.case "engine timer re-arm allocates nothing" `Quick
      engine_timer_rearm_alloc;
    Testbed.case "engine periodic handle pause/resume" `Quick
      engine_timer_periodic;
    Testbed.case "engine instance metrics" `Quick
      engine_instance_metrics;
    Testbed.case "engine fires in model (time, seq) order" `Quick
      engine_fires_in_model_order;
    Testbed.case "pool static reservation" `Quick pool_reservation;
    Testbed.case "pool DT caps one queue" `Quick
      pool_dt_limits_single_port;
    Testbed.case "pool release" `Quick pool_release;
    Testbed.case "pool per-port cap (minbuffer)" `Quick pool_port_cap;
    qtest pool_conservation_qcheck;
    Testbed.case "txport serialization timing" `Quick
      txport_serialization_timing;
    Testbed.case "txport round robin" `Quick txport_round_robin;
    qtest txport_bursts_qcheck;
    Testbed.case "txport handoff sends in order" `Quick txport_handoff;
    Testbed.case "txport drained burst retains no frame" `Quick
      txport_drained_burst_retains_nothing;
    Testbed.case "switch forwards on MAC" `Quick switch_forwards;
    Testbed.case "switch counts unroutable" `Quick switch_unroutable;
    Testbed.case "switch egress rewrite" `Quick switch_egress_rewrite;
    Testbed.case "switch route and rewrite tables" `Quick switch_route_table;
    Testbed.case "switch per-flow rewrite" `Quick switch_flow_rewrite;
    Testbed.case "switch mirroring" `Quick switch_mirroring;
    Testbed.case "switch rejects self-mirror" `Quick
      switch_mirror_self_rejected;
    Testbed.case "switch drops when buffer full" `Quick
      switch_drops_when_buffer_full;
    Testbed.case "switch metric rows match port stats" `Quick
      switch_metric_rows;
    Testbed.case "switch packet-out injection" `Quick switch_inject;
    Testbed.case "host MAC filtering" `Quick host_mac_filter;
    Testbed.case "host stack is FIFO" `Quick host_stack_is_fifo;
    Testbed.case "host learns from unicast ARP request" `Quick
      host_arp_unicast_request_learns;
    Testbed.case "host ignores unsolicited ARP reply" `Quick
      host_arp_ignores_unsolicited_reply;
    Testbed.case "host ARP locktime" `Quick host_arp_locktime;
    Testbed.case "sink poll batching" `Quick sink_batches;
    Testbed.case "sink ring overflow" `Quick sink_ring_overflow;
    Testbed.case "sink rejects an empty ring" `Quick
      sink_rejects_empty_ring;
    Testbed.case "sink drain allocation-free" `Quick sink_drain_alloc;
  ]
