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

let engine_instance_metrics () =
  let e = Engine.create ~label:"tnetsim-metrics" () in
  Alcotest.(check string) "label" "tnetsim-metrics" (Engine.label e);
  for i = 1 to 5 do
    Engine.schedule e ~delay:(Time.us i) (fun () -> ())
  done;
  Alcotest.(check int) "pending" 5 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check int) "per-engine high water" 5 (Engine.max_pending e);
  Alcotest.(check int) "processed" 5 (Engine.events_processed e)

(* The same program through the wheel and the pre-wheel heap-only
   scheduler: identical fire order and identical clock. *)
let engine_heap_only_equivalence () =
  let run config =
    let e = Engine.create ~queue:config () in
    let log = ref [] in
    let prng = Prng.create ~seed:42 in
    for i = 1 to 50 do
      Engine.schedule e ~delay:(Prng.int prng (Time.ms 2)) (fun () ->
          log := (i, Engine.now e) :: !log)
    done;
    let rto = Engine.Timer.create e (fun () -> log := (99, Engine.now e) :: !log) in
    Engine.Timer.reschedule rto ~delay:(Time.us 1700);
    Engine.Timer.reschedule rto ~delay:(Time.us 900);
    Engine.every e ~period:(Time.us 100) ~until:(Time.ms 1) (fun () ->
        log := (0, Engine.now e) :: !log);
    Engine.run e;
    (List.rev !log, Engine.now e, Engine.events_processed e)
  in
  let wheel = run (Engine.default_queue ()) in
  let heap = run Planck_util.Timer_wheel.heap_only in
  Alcotest.(check bool) "wheel and heap-only runs identical" true (wheel = heap)

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
    Testbed.case "engine wheel vs heap-only equivalence" `Quick
      engine_heap_only_equivalence;
    Testbed.case "pool static reservation" `Quick pool_reservation;
    Testbed.case "pool DT caps one queue" `Quick
      pool_dt_limits_single_port;
    Testbed.case "pool release" `Quick pool_release;
    Testbed.case "pool per-port cap (minbuffer)" `Quick pool_port_cap;
    qtest pool_conservation_qcheck;
    Testbed.case "txport serialization timing" `Quick
      txport_serialization_timing;
    Testbed.case "txport round robin" `Quick txport_round_robin;
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
