(* The sharded engine: SPSC channel primitives, the partition/plan
   helpers, conservative-lookahead edge cases (empty shards, events
   exactly on the window boundary), the 1-shard journal byte-identity
   acceptance check, and multi-shard run determinism. *)

module Time = Planck_util.Time
module Spsc = Planck_util.Spsc
module Engine = Planck_netsim.Engine
module Shard = Planck_netsim.Shard
module Switch = Planck_netsim.Switch
module Fabric = Planck_topology.Fabric
module Fat_tree = Planck_topology.Fat_tree
module Journal = Planck_telemetry.Journal
module Scalability = Planck.Scalability
module Testbed_spec = Planck.Testbed
module Experiment = Planck.Experiment
module Scheme = Planck.Scheme
module P = Planck_packet.Packet
module H = Planck_packet.Headers
module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr

(* ---- SPSC queue ---- *)

let spsc_fifo () =
  let q : int Spsc.t = Spsc.create () in
  Alcotest.(check (option int)) "empty pop" None (Spsc.pop q);
  Alcotest.(check (option int)) "empty peek" None (Spsc.peek q);
  for i = 1 to 100 do
    Spsc.push q i
  done;
  Alcotest.(check (option int)) "peek is FIFO head" (Some 1) (Spsc.peek q);
  Alcotest.(check (option int)) "peek does not consume" (Some 1) (Spsc.peek q);
  Alcotest.(check (option int)) "pop head" (Some 1) (Spsc.pop q);
  let seen = ref [] in
  Spsc.drain q (fun x -> seen := x :: !seen);
  Alcotest.(check (list int))
    "drain yields the rest in order"
    (List.init 99 (fun i -> i + 2))
    (List.rev !seen);
  Alcotest.(check (option int)) "drained empty" None (Spsc.pop q);
  (* interleaved push/pop keeps FIFO order across the sentinel *)
  Spsc.push q 7;
  Alcotest.(check (option int)) "reusable after drain" (Some 7) (Spsc.pop q)

(* ---- role check: Spsc.set_debug confines each role of a channel to
   one domain, and tells N shard instances of one shard body apart ---- *)

let spsc_debug_clean_path () =
  Spsc.set_debug true;
  Fun.protect
    ~finally:(fun () -> Spsc.set_debug false)
    (fun () ->
      let q : int Spsc.t = Spsc.create () in
      let producer =
        Domain.spawn (fun () ->
            for i = 1 to 50 do
              Spsc.push q i
            done)
      in
      (* main claims the consumer slot; one domain per role is legal *)
      let seen = ref 0 in
      while !seen < 50 do
        match Spsc.pop q with
        | Some v ->
            incr seen;
            Alcotest.(check int) "FIFO across domains" !seen v
        | None -> Domain.cpu_relax ()
      done;
      Domain.join producer;
      Alcotest.(check (option int)) "drained" None (Spsc.pop q))

let spsc_debug_role_violation () =
  Spsc.set_debug true;
  Fun.protect
    ~finally:(fun () -> Spsc.set_debug false)
    (fun () ->
      let q : int Spsc.t = Spsc.create () in
      Spsc.push q 1;
      (* main holds the producer slot now *)
      let violated =
        Domain.spawn (fun () ->
            match Spsc.push q 2 with
            | () -> false
            | exception Failure _ -> true)
      in
      Alcotest.(check bool) "second producer domain raises" true
        (Domain.join violated);
      ignore (Spsc.pop q : int option);
      (* ... and the consumer slot too *)
      let violated =
        Domain.spawn (fun () ->
            match Spsc.peek q with
            | _ -> false
            | exception Failure _ -> true)
      in
      Alcotest.(check bool) "second consumer domain raises" true
        (Domain.join violated);
      (* the claiming domains keep working *)
      Spsc.push q 3;
      Alcotest.(check (option int)) "roles still usable" (Some 3) (Spsc.pop q))

(* ---- Scalability.shard_plan ---- *)

let sum = Array.fold_left ( + ) 0
let spread a = Array.fold_left max 0 a - Array.fold_left min max_int a

let shard_plan_fat_tree () =
  let p = Scalability.fat_tree_plan ~k:16 in
  Alcotest.(check int) "k=16 hosts" 1024 p.Scalability.hosts;
  Alcotest.(check int) "k=16 switches" 320 p.Scalability.switches;
  let sp = Scalability.shard_plan p ~shards:4 in
  Alcotest.(check int) "hosts preserved" 1024
    (sum sp.Scalability.hosts_per_shard);
  Alcotest.(check int) "switches preserved" 320
    (sum sp.Scalability.switches_per_shard);
  Array.iter
    (Alcotest.(check int) "256 hosts per shard" 256)
    sp.Scalability.hosts_per_shard;
  Array.iter
    (Alcotest.(check int) "80 switches per shard" 80)
    sp.Scalability.switches_per_shard;
  (* 80 switches / 14 collectors per server, rounded up *)
  Array.iter
    (Alcotest.(check int) "6 collector servers per shard" 6)
    sp.Scalability.collector_servers_per_shard;
  Alcotest.(check (float 1e-9)) "even split has no imbalance" 0.0
    sp.Scalability.imbalance_pct;
  let sp3 = Scalability.shard_plan p ~shards:3 in
  Alcotest.(check int) "non-dividing split preserves hosts" 1024
    (sum sp3.Scalability.hosts_per_shard);
  Alcotest.(check int) "non-dividing split preserves switches" 320
    (sum sp3.Scalability.switches_per_shard);
  Alcotest.(check bool) "host blocks differ by at most one" true
    (spread sp3.Scalability.hosts_per_shard <= 1);
  Alcotest.(check bool) "imbalance is small but positive" true
    (sp3.Scalability.imbalance_pct > 0.0
    && sp3.Scalability.imbalance_pct < 1.0);
  let sp1 = Scalability.shard_plan p ~shards:1 in
  Alcotest.(check (array int)) "one shard owns everything" [| 1024 |]
    sp1.Scalability.hosts_per_shard;
  Alcotest.(check (float 1e-9)) "one shard has no imbalance" 0.0
    sp1.Scalability.imbalance_pct;
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Scalability.shard_plan: shards must be >= 1")
    (fun () -> ignore (Scalability.shard_plan p ~shards:0))

let shard_plan_jellyfish () =
  let p = Scalability.jellyfish_plan ~ports:24 ~hosts_per_switch:8 ~hosts:400 in
  let sp = Scalability.shard_plan p ~shards:7 in
  Alcotest.(check int) "hosts preserved" p.Scalability.hosts
    (sum sp.Scalability.hosts_per_shard);
  Alcotest.(check int) "switches preserved" p.Scalability.switches
    (sum sp.Scalability.switches_per_shard);
  Alcotest.(check bool) "host blocks near-equal" true
    (spread sp.Scalability.hosts_per_shard <= 1);
  Alcotest.(check bool) "switch blocks near-equal" true
    (spread sp.Scalability.switches_per_shard <= 1)

(* ---- group construction and validation ---- *)

let test_pkt () =
  P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1) ~src_ip:(Ip.host 0)
    ~dst_ip:(Ip.host 1) ~src_port:1 ~dst_port:2 ~seq:0 ~ack_seq:0
    ~flags:H.Tcp_flags.ack ~payload_len:64 ()

(* A group costs its engines and wiring, not journal storage it may
   never use: shard journals grow with what they record. *)
let group_allocates_no_journal_ring () =
  let before = Gc.allocated_bytes () in
  let g = Shard.create ~shards:4 in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "four shards" 4 (Shard.shards g);
  Alcotest.(check bool)
    (Printf.sprintf "Shard.create ~shards:4 allocates %.0f KiB (< 1 MiB)"
       (allocated /. 1024.))
    true
    (allocated < 1024. *. 1024.)

let group_validation () =
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Shard.create: shards must be >= 1") (fun () ->
      ignore (Shard.create ~shards:0));
  let g = Shard.create ~shards:2 in
  Alcotest.(check int) "shard count" 2 (Shard.shards g);
  Alcotest.(check bool) "no channels, no lookahead" true
    (Shard.lookahead g = None);
  let register ~src ~dst ~prop_delay =
    let (_ : Time.t -> P.t -> unit) =
      Shard.channel g ~src ~dst ~prop_delay ~deliver:ignore
    in
    ()
  in
  Alcotest.(check bool) "self-channel rejected" true
    (try
       register ~src:1 ~dst:1 ~prop_delay:(Time.us 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero prop delay rejected" true
    (try
       register ~src:0 ~dst:1 ~prop_delay:Time.zero;
       false
     with Invalid_argument _ -> true);
  register ~src:0 ~dst:1 ~prop_delay:(Time.us 5);
  Alcotest.(check bool) "lookahead tracks first channel" true
    (Shard.lookahead g = Some (Time.us 5));
  register ~src:1 ~dst:0 ~prop_delay:(Time.us 3);
  Alcotest.(check bool) "lookahead is the minimum" true
    (Shard.lookahead g = Some (Time.us 3))

(* An empty shard with no cross links advances by pure lookahead
   windows: it must neither stall the group nor fall behind the clock. *)
let empty_shard_pure_advance () =
  let g = Shard.create ~shards:2 in
  let fired = ref false in
  Engine.schedule (Shard.engine g 0) ~delay:(Time.us 7) (fun () ->
      fired := true);
  Shard.run g ~horizon:(Time.ms 50) ~local_done:(fun s ->
      s = 1 || !fired);
  Alcotest.(check bool) "shard 0 ran its event" true !fired;
  Alcotest.(check bool) "clocks end equal on a window boundary" true
    (Engine.now (Shard.engine g 0) = Engine.now (Shard.engine g 1));
  Alcotest.(check int) "nothing buffered in the shard journal" 0
    (Journal.length (Engine.journal (Shard.engine g 0)))

(* A frame transmitted in window r arriving exactly at the window
   boundary (ts = (r+1) * W, the tightest the lookahead bound allows)
   must be delivered in the destination wheel at exactly that time. *)
let delivery_exactly_at_lookahead_horizon () =
  let g = Shard.create ~shards:2 in
  let delivered = ref [] in
  let fwd =
    Shard.channel g ~src:0 ~dst:1 ~prop_delay:(Time.us 5) ~deliver:(fun _ ->
        delivered := ("fwd", Engine.now (Shard.engine g 1)) :: !delivered)
  in
  let bwd =
    Shard.channel g ~src:1 ~dst:0 ~prop_delay:(Time.us 3) ~deliver:(fun _ ->
        delivered := ("bwd", Engine.now (Shard.engine g 0)) :: !delivered)
  in
  (* lookahead = min(5us, 3us) = 3us, so the window is 3us wide *)
  let pkt = test_pkt () in
  Engine.schedule (Shard.engine g 0) ~delay:0 (fun () -> fwd (Time.us 5) pkt);
  Engine.schedule (Shard.engine g 1) ~delay:0 (fun () -> bwd (Time.us 3) pkt);
  Shard.run g ~horizon:(Time.us 30) ~local_done:(fun _ -> false);
  let find tag = List.assoc_opt tag !delivered in
  Alcotest.(check (option int))
    "boundary frame delivered at exactly its arrival time" (Some (Time.us 3))
    (find "bwd");
  Alcotest.(check (option int))
    "mid-window frame delivered at exactly its arrival time" (Some (Time.us 5))
    (find "fwd");
  Alcotest.(check int) "both frames delivered" 2 (List.length !delivered);
  Alcotest.(check int) "group stops on the horizon boundary" (Time.us 30)
    (Engine.now (Shard.engine g 0));
  Alcotest.(check int) "clocks end equal" (Time.us 30)
    (Engine.now (Shard.engine g 1))

(* Frames on one channel are delivered in the order they were handed
   off, each at its own arrival time: several at one instant, one
   mid-window, and others in later windows. A handoff whose arrival
   times go backwards is refused, since delivery order would then
   differ from arrival order. *)
let seq_pkt seq =
  P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1) ~src_ip:(Ip.host 0)
    ~dst_ip:(Ip.host 1) ~src_port:1 ~dst_port:2 ~seq ~ack_seq:0
    ~flags:H.Tcp_flags.ack ~payload_len:64 ()

let seq_of p =
  match p with P.Tcp { seq; _ } -> seq | P.Udp _ | P.Arp _ -> -1

let channel_arrivals_in_order () =
  let g = Shard.create ~shards:2 in
  let e0 = Shard.engine g 0 and e1 = Shard.engine g 1 in
  let got = ref [] in
  let send =
    Shard.channel g ~src:0 ~dst:1 ~prop_delay:(Time.us 2) ~deliver:(fun p ->
        got := (seq_of p, Engine.now e1) :: !got)
  in
  let send_at time seqs =
    Engine.schedule_at e0 ~time (fun () ->
        List.iter (fun seq -> send (Engine.now e0 + Time.us 2) (seq_pkt seq)) seqs)
  in
  send_at 0 [ 1; 2; 3 ];
  send_at (Time.us 1) [ 4 ];
  send_at (Time.us 5) [ 5; 6 ];
  send_at (Time.us 11) [ 7 ];
  Shard.run g ~horizon:(Time.us 30) ~local_done:(fun _ -> false);
  Alcotest.(check (list (pair int int)))
    "handoff order, each at its arrival time"
    [
      (1, Time.us 2); (2, Time.us 2); (3, Time.us 2); (4, Time.us 3);
      (5, Time.us 7); (6, Time.us 7); (7, Time.us 13);
    ]
    (List.rev !got);
  let g = Shard.create ~shards:2 in
  let send =
    Shard.channel g ~src:0 ~dst:1 ~prop_delay:(Time.us 2) ~deliver:ignore
  in
  Engine.schedule (Shard.engine g 0) ~delay:0 (fun () ->
      send (Time.us 5) (seq_pkt 1);
      send (Time.us 4) (seq_pkt 2));
  Alcotest.check_raises "decreasing arrival times refused"
    (Invalid_argument "Shard: arrival times decrease on a channel") (fun () ->
      Shard.run g ~horizon:(Time.us 30) ~local_done:(fun _ -> false))

(* The process-wide event count is fed once per engine run, not per
   event: with two shard domains running their engines concurrently,
   the aggregate must still equal the sum of the per-engine counts. *)
let aggregate_events_exact () =
  let module Metrics = Planck_telemetry.Metrics in
  let was = Metrics.enabled Metrics.default in
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset Metrics.default;
      Metrics.set_enabled Metrics.default was)
    (fun () ->
      let g = Shard.create ~shards:2 in
      (* An idle 1us link makes 1us windows: 5,000 rounds, in each of
         which both shards run ticks. *)
      ignore
        (Shard.channel g ~src:0 ~dst:1 ~prop_delay:(Time.us 1) ~deliver:ignore
          : Time.t -> P.t -> unit);
      for s = 0 to 1 do
        let e = Shard.engine g s in
        ignore (Engine.periodic e ~period:(Time.ns 50) ignore : Engine.Timer.t);
        (* timers armed and cancelled before the run: shard s counts
           2s + 1 cancellations and a high-water of 2s + 2, and no
           event *)
        let timers =
          List.init ((2 * s) + 1) (fun _ -> Engine.Timer.create e ignore)
        in
        List.iter (fun tm -> Engine.Timer.reschedule tm ~delay:(Time.us 1)) timers;
        List.iter Engine.Timer.cancel timers
      done;
      Shard.run g ~horizon:(Time.ms 5) ~local_done:(fun _ -> false);
      let engines = List.init 2 (Shard.engine g) in
      let row name label =
        List.find_map
          (fun (r : Metrics.snapshot) ->
            if r.subsystem = "engine" && r.name = name && r.label = label
            then Some r.value
            else None)
          (Metrics.snapshot Metrics.default)
      in
      let events = List.map Engine.events_processed engines in
      Alcotest.(check int) "every shard ran its ticks" 200_000
        (List.fold_left ( + ) 0 events);
      (match row "events_processed" "" with
      | Some (Metrics.Counter_value n) ->
          Alcotest.(check int) "aggregate counter is the sum of the engines"
            (List.fold_left ( + ) 0 events)
            n
      | _ -> Alcotest.fail "no label-less events_processed counter");
      (match row "pending_high_water" "" with
      | Some (Metrics.Gauge_value { max = hw; _ }) ->
          Alcotest.(check (list int)) "shard high-waters" [ 2; 4 ]
            (List.map Engine.max_pending engines);
          Alcotest.(check int) "aggregate high-water is the largest shard's"
            (List.fold_left max 0 (List.map Engine.max_pending engines))
            (int_of_float hw)
      | _ -> Alcotest.fail "no label-less pending_high_water gauge");
      List.iteri
        (fun s e ->
          match row "timers_cancelled" (Printf.sprintf "shard%d" s) with
          | Some (Metrics.Counter_value n) ->
              Alcotest.(check int)
                (Printf.sprintf "shard%d cancellations" s)
                ((2 * s) + 1) (Engine.timers_cancelled e);
              Alcotest.(check int)
                (Printf.sprintf "shard%d timers_cancelled row" s)
                (Engine.timers_cancelled e) n
          | _ -> Alcotest.fail "no shard timers_cancelled counter")
        engines)

(* ---- journal merge determinism ---- *)

let marker name = Journal.Phase_marker { name; detail = "" }

let merge_orders_by_time_then_shard () =
  let j0 = Journal.create () and j1 = Journal.create () in
  Journal.record j0 ~ts:(Time.us 2) (marker "a");
  Journal.record j0 ~ts:(Time.us 9) (marker "b");
  Journal.record j1 ~ts:(Time.us 2) (marker "c");
  Journal.record j1 ~ts:(Time.us 1) (marker "d");
  let dst = Journal.create () in
  Journal.merge_into dst [ (0, j0); (1, j1) ];
  let names =
    List.map
      (fun (ev : Journal.event) ->
        match ev.Journal.body with
        | Journal.Phase_marker { name; _ } -> name
        | _ -> "?")
      (Journal.events dst)
  in
  Alcotest.(check (list string))
    "sorted by sim-time, ties broken by shard id"
    [ "d"; "a"; "c"; "b" ] names

(* ---- journal ownership ---- *)

(* Run [f] with the process-wide journal on or off, empty before and
   after. *)
let with_default_journal on f =
  let was = Journal.enabled Journal.default in
  Journal.clear Journal.default;
  Journal.set_enabled Journal.default on;
  Fun.protect
    ~finally:(fun () ->
      Journal.set_enabled Journal.default was;
      Journal.clear Journal.default)
    f

(* What a shard domain records goes to its engine's journal, with that
   shard's correlation base; the process-wide journal sees it only
   through the merge. *)
let shard_engine_owns_its_journal () =
  with_default_journal true @@ fun () ->
  let g = Shard.create ~shards:2 in
  let e1 = Shard.engine g 1 in
  Engine.schedule e1 ~delay:(Time.us 1) (fun () ->
      let j = Engine.journal e1 in
      Journal.record j ~ts:(Engine.now e1) ~corr:(Journal.next_corr j)
        (marker "on-shard-1"));
  Shard.run g ~horizon:(Time.us 10) ~local_done:(fun _ -> false);
  let corrs s =
    List.map
      (fun (ev : Journal.event) -> ev.Journal.corr)
      (Journal.events (Engine.journal (Shard.engine g s)))
  in
  Alcotest.(check (list (option int)))
    "shard 1's journal holds the event at its id base"
    [ Some ((1 lsl 40) + 1) ]
    (corrs 1);
  Alcotest.(check (list (option int))) "shard 0's journal is empty" []
    (corrs 0);
  Alcotest.(check int) "the process-wide journal is empty before the merge" 0
    (Journal.length Journal.default);
  Shard.merge_journals g ~into:Journal.default;
  Alcotest.(check int) "the merge brings it over" 1
    (Journal.length Journal.default)

(* ---- sharded topologies through Testbed/Experiment ---- *)

let sharded_spec ?(shards = 2) () =
  {
    Testbed_spec.default_spec with
    Testbed_spec.shards = Some shards;
    alts = Some 1;
    core_prop_delay = Some Fat_tree.default_core_prop_delay;
  }

let fabric_shard_assignment () =
  let tb = Testbed_spec.create (sharded_spec ()) in
  let fabric = tb.Testbed_spec.fabric in
  (match Fabric.shard_group fabric with
  | None -> Alcotest.fail "sharded build must expose its group"
  | Some g -> Alcotest.(check int) "group width" 2 (Shard.shards g));
  Alcotest.(check int) "first pod on shard 0" 0 (Fabric.shard_of_host fabric 0);
  Alcotest.(check int) "last pod on shard 1" 1
    (Fabric.shard_of_host fabric 15);
  let hosts_on s =
    List.length
      (List.filter
         (fun h -> Fabric.shard_of_host fabric h = s)
         (List.init 16 Fun.id))
  in
  Alcotest.(check int) "pods split evenly: shard 0 hosts" 8 (hosts_on 0);
  Alcotest.(check int) "pods split evenly: shard 1 hosts" 8 (hosts_on 1);
  (* a host's edge switch lives on the host's shard *)
  List.iter
    (fun h ->
      let sw, _port = Fabric.host_attachment fabric ~host:h in
      Alcotest.(check int)
        (Printf.sprintf "host %d uplink stays on its shard" h)
        (Fabric.shard_of_host fabric h)
        (Fabric.shard_of_switch fabric sw))
    (List.init 16 Fun.id);
  let unsharded = Testbed_spec.create Testbed_spec.default_spec in
  Alcotest.(check bool) "unsharded build has no group" true
    (Fabric.shard_group unsharded.Testbed_spec.fabric = None);
  Alcotest.(check int) "unsharded assignment is all shard 0" 0
    (Fabric.shard_of_switch unsharded.Testbed_spec.fabric 3)

(* Single-switch topology sharded two ways: the degenerate partition
   puts everything on shard 0 and leaves shard 1 empty with zero cross
   links — the run must still complete. *)
let empty_shard_topology_completes () =
  let spec =
    {
      Testbed_spec.default_spec with
      Testbed_spec.topology = Testbed_spec.Single_switch { hosts = 4 };
      shards = Some 2;
    }
  in
  let summary =
    Experiment.run ~spec ~scheme:Scheme.Static
      ~workload:(Experiment.Stride 1) ~size:(256 * 1024)
      ~horizon:(Time.s 5) ()
  in
  Alcotest.(check bool) "all flows complete" true
    summary.Experiment.all_completed;
  Alcotest.(check int) "one flow per host" 4
    (List.length summary.Experiment.flows)

let flow_key (r : Planck_workloads.Runner.flow_result) =
  ( r.Planck_workloads.Runner.src,
    r.Planck_workloads.Runner.dst,
    r.Planck_workloads.Runner.completed,
    r.Planck_workloads.Runner.finish_time )

let multi_shard_run_deterministic () =
  let run () =
    Experiment.run ~spec:(sharded_spec ()) ~scheme:Scheme.Static
      ~workload:(Experiment.Stride 8) ~size:(512 * 1024)
      ~horizon:(Time.s 5) ()
  in
  let a = run () in
  Alcotest.(check bool) "sharded run completes" true
    a.Experiment.all_completed;
  Alcotest.(check int) "16 flows" 16 (List.length a.Experiment.flows);
  let b = run () in
  Alcotest.(check bool) "same config, same per-flow outcomes" true
    (List.for_all2
       (fun x y -> flow_key x = flow_key y)
       a.Experiment.flows b.Experiment.flows);
  (* and it agrees with the single-domain engine on the aggregate *)
  let single =
    Experiment.run
      ~spec:{ (sharded_spec ()) with Testbed_spec.shards = None }
      ~scheme:Scheme.Static ~workload:(Experiment.Stride 8)
      ~size:(512 * 1024) ~horizon:(Time.s 5) ()
  in
  Alcotest.(check bool) "single-domain arm completes" true
    single.Experiment.all_completed;
  let rel =
    abs_float (a.Experiment.avg_goodput_gbps -. single.Experiment.avg_goodput_gbps)
    /. single.Experiment.avg_goodput_gbps
  in
  Alcotest.(check bool) "aggregate goodput within 25% of single-domain" true
    (rel < 0.25)

(* The shard journals take the process-wide journal's state at group
   creation: off there (the fanout-k16 benchmark's configuration), a
   sharded run that drops frames (small switch buffers) records nothing
   anywhere. *)
let disabled_shard_journals_stay_empty () =
  with_default_journal false @@ fun () ->
  let spec =
    {
      (sharded_spec ()) with
      Testbed_spec.switch_config =
        {
          Switch.default_config with
          Switch.buffer_total = 32 * 1024;
          buffer_reservation = 2 * 1024;
        };
    }
  in
  let testbed = ref None in
  let (_ : Experiment.summary) =
    Experiment.with_observer
      (fun tb _ ->
        testbed := Some tb;
        None)
      (fun () ->
        Experiment.run ~spec ~scheme:Scheme.Static
          ~workload:(Experiment.Stride 8) ~size:(512 * 1024)
          ~horizon:(Time.s 5) ())
  in
  let tb = Option.get !testbed in
  let fabric = tb.Testbed_spec.fabric in
  let drops =
    List.fold_left ( + ) 0
      (List.init (Fabric.switch_count fabric) (fun sw ->
           Switch.total_data_drops (Fabric.switch fabric sw)))
  in
  Alcotest.(check bool) (Printf.sprintf "the run drops frames (%d)" drops) true
    (drops > 0);
  let g = Option.get tb.Testbed_spec.shard in
  for s = 0 to Shard.shards g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "shard %d journal stays empty" s)
      0
      (Journal.length (Engine.journal (Shard.engine g s)))
  done;
  Alcotest.(check int) "the process-wide journal stays empty" 0
    (Journal.length Journal.default)

(* Control-plane schemes and mid-run workloads refuse multi-shard runs
   loudly instead of racing. *)
let multi_shard_guards () =
  let raises_invalid f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "control-plane scheme rejected on 2 shards" true
    (raises_invalid (fun () ->
         Experiment.run ~spec:(sharded_spec ()) ~scheme:Scheme.planck_te_default
           ~workload:(Experiment.Stride 8) ~size:4096 ()));
  Alcotest.(check bool) "shuffle rejected when sharded" true
    (raises_invalid (fun () ->
         Experiment.run ~spec:(sharded_spec ()) ~scheme:Scheme.Static
           ~workload:(Experiment.Shuffle { concurrency = 1 })
           ~size:4096 ()))

(* ---- the acceptance property: --shards 1 is byte-identical ---- *)

let capture shards =
  let buf = Buffer.create 4096 in
  let was_enabled = Journal.enabled Journal.default in
  Journal.clear Journal.default;
  Journal.set_enabled Journal.default true;
  Journal.set_writer Journal.default
    (Some
       (fun line ->
         Buffer.add_string buf line;
         Buffer.add_char buf '\n'));
  Fun.protect
    ~finally:(fun () ->
      Journal.set_writer Journal.default None;
      Journal.set_enabled Journal.default was_enabled;
      Journal.clear Journal.default)
    (fun () ->
      let spec =
        { (Testbed_spec.paper_fat_tree ()) with Testbed_spec.shards }
      in
      (* PlanckTE is the journal-heavy scheme (detections, estimates,
         reroutes) and composes with sharding at exactly one shard. *)
      let summary =
        Experiment.run ~spec ~scheme:Scheme.planck_te_default
          ~workload:(Experiment.Stride 8) ~size:(2 * 1024 * 1024)
          ~horizon:(Time.s 10) ()
      in
      Alcotest.(check bool) "capture arm completes" true
        summary.Experiment.all_completed;
      Buffer.contents buf)

let one_shard_byte_identity () =
  let single = capture None in
  let sharded = capture (Some 1) in
  let lines s =
    List.length (String.split_on_char '\n' s) - 1
  in
  Alcotest.(check bool) "journal is non-trivial (beyond phase markers)" true
    (lines single > 2);
  Alcotest.(check int) "same journal size" (String.length single)
    (String.length sharded);
  Alcotest.(check bool) "one-shard NDJSON is byte-identical" true
    (String.equal single sharded)

let tests =
  [
    Testbed.case "spsc fifo, peek, drain" `Quick spsc_fifo;
    Testbed.case "spsc debug: clean two-domain path" `Quick
      spsc_debug_clean_path;
    Testbed.case "spsc debug: role violation raises" `Quick
      spsc_debug_role_violation;
    Testbed.case "shard_plan splits the k=16 plan" `Quick
      shard_plan_fat_tree;
    Testbed.case "shard_plan splits a jellyfish plan" `Quick
      shard_plan_jellyfish;
    Testbed.case "group construction validates" `Quick group_validation;
    Testbed.case "group allocates no journal ring" `Quick
      group_allocates_no_journal_ring;
    Testbed.case "empty shard advances by pure lookahead" `Quick
      empty_shard_pure_advance;
    Testbed.case "channel delivers in handoff order" `Quick
      channel_arrivals_in_order;
    Testbed.case "aggregate event count exact" `Quick
      aggregate_events_exact;
    Testbed.case "delivery exactly at the lookahead horizon" `Quick
      delivery_exactly_at_lookahead_horizon;
    Testbed.case "merge orders by (time, shard)" `Quick
      merge_orders_by_time_then_shard;
    Testbed.case "fabric shard assignment is pod-granular" `Quick
      fabric_shard_assignment;
    Testbed.case "empty-shard topology completes" `Quick
      empty_shard_topology_completes;
    Testbed.case "multi-shard run is deterministic" `Quick
      multi_shard_run_deterministic;
    Testbed.case "multi-shard guards refuse unsafe configs" `Quick
      multi_shard_guards;
    Testbed.case "shard engine owns its journal" `Quick
      shard_engine_owns_its_journal;
    Testbed.case "disabled shard journals stay empty" `Quick
      disabled_shard_journals_stay_empty;
    Testbed.case "one-shard journal is byte-identical" `Quick
      one_shard_byte_identity;
  ]
