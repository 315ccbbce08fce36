(* Bechamel microbenchmarks of the hot paths: packet wire handling, the
   rate estimator, the event queue, and switch forwarding. *)

open Bechamel
open Toolkit
module Time_u = Planck_util.Time
module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Heap = Planck_util.Heap
module Wheel = Planck_util.Timer_wheel
module P = Planck_packet.Packet
module H = Planck_packet.Headers
module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr
module Seq32 = Planck_packet.Seq32
module Rate_estimator = Planck_collector.Rate_estimator
module Engine = Planck_netsim.Engine
module Switch = Planck_netsim.Switch
module Metrics = Planck_telemetry.Metrics
module Journal = Planck_telemetry.Journal
module FK = Planck_packet.Flow_key
module Flow_table = Planck_collector.Flow_table
module Count_min = Planck_sketch.Count_min
module Tiered = Planck_sketch.Tiered_table

let sample_packet =
  P.tcp ~src_mac:(Mac.host 1) ~dst_mac:(Mac.host 2) ~src_ip:(Ip.host 1)
    ~dst_ip:(Ip.host 2) ~src_port:1234 ~dst_port:80 ~seq:123456
    ~ack_seq:654321 ~flags:H.Tcp_flags.ack
    ~sack:[ (1000, 2000); (3000, 4000) ]
    ~payload_len:1460 ()

let sample_wire = P.to_wire sample_packet

let test_serialize =
  Test.make ~name:"packet serialize (to_wire)"
    (Staged.stage (fun () -> ignore (P.to_wire sample_packet)))

let test_parse =
  Test.make ~name:"packet parse (from wire bytes)"
    (Staged.stage (fun () ->
         ignore (P.parse sample_wire ~wire_size:(P.wire_size sample_packet))))

let test_estimator =
  let estimator = Rate_estimator.create () in
  let counter = ref 0 in
  Test.make ~name:"rate estimator update"
    (Staged.stage (fun () ->
         incr counter;
         ignore
           (Rate_estimator.update estimator
              ~time:(!counter * 1168)
              ~seq32:(Seq32.wrap (!counter * 1460)))))

(* Remove the minimum entry and return its key. *)
let heap_pop heap =
  let key = Heap.top_key heap in
  Heap.drop heap;
  key

let test_heap =
  let heap = Heap.create () in
  let prng = Prng.create ~seed:1 in
  Test.make ~name:"event heap add+pop"
    (Staged.stage (fun () ->
         Heap.add heap ~key:(Prng.int prng 1_000_000) 0;
         ignore (heap_pop heap : int)))

(* ---- event-queue trajectory: min-heap baseline vs the event queue ----

   The same timer-shaped workload (a monotone clock, ~90% of delays
   within 1 ms, 10% within 100 ms) driven through the raw heap and
   through the engine's queue, so BENCH_*.json carries both sides of
   the comparison. *)

let timer_delay prng =
  if Prng.int prng 100 < 90 then Prng.int prng 1_000_000 (* <=1ms *)
  else Prng.int prng 100_000_000 (* <=100ms *)

let queue_transient_heap =
  let heap = Heap.create () in
  let prng = Prng.create ~seed:2 in
  let now = ref 0 in
  Test.make ~name:"event-queue transient add+pop (heap baseline)"
    (Staged.stage (fun () ->
         Heap.add heap ~key:(!now + timer_delay prng) 0;
         now := heap_pop heap))

(* The wheel rows schedule and pop one-shot ids the way the engine
   does: an id from the free list per schedule, one [take_until] per
   pop, the id released as it fires. [wheel_pop] returns the popped
   key. *)
let wheel_add wheel ~key = Wheel.schedule wheel (Wheel.alloc wheel) ~key

let wheel_pop wheel =
  Wheel.release wheel (Wheel.take_until wheel max_int);
  Wheel.last_key wheel

let queue_transient_wheel =
  let wheel = Wheel.create () in
  let prng = Prng.create ~seed:3 in
  let now = ref 0 in
  Test.make ~name:"event-queue transient add+pop (wheel)"
    (Staged.stage (fun () ->
         wheel_add wheel ~key:(!now + timer_delay prng);
         now := wheel_pop wheel))

(* Steady state: the queue holds ~8k pending timers (a large testbed's
   worth of RTOs, drain polls, and sampling clocks) while events churn
   through it. Spread over 100 ms, nearly all of them wait in the
   queue's far-tier heap, so this row prices that heap, not the ring. *)
let queue_steady_heap =
  let heap = Heap.create () in
  let prng = Prng.create ~seed:4 in
  let now = ref 0 in
  for _ = 1 to 8_192 do
    Heap.add heap ~key:(timer_delay prng) 0
  done;
  Test.make ~name:"event-queue 8k-pending add+pop (heap baseline)"
    (Staged.stage (fun () ->
         now := heap_pop heap;
         Heap.add heap ~key:(!now + timer_delay prng) 0))

let queue_steady_wheel =
  let wheel = Wheel.create () in
  let prng = Prng.create ~seed:4 in
  let now = ref 0 in
  for _ = 1 to 8_192 do
    wheel_add wheel ~key:(timer_delay prng)
  done;
  Test.make ~name:"event-queue 8k-pending add+pop (wheel)"
    (Staged.stage (fun () ->
         now := wheel_pop wheel;
         wheel_add wheel ~key:(!now + timer_delay prng)))

(* Dense tick: ~256 entries stay pending a few ns apart, over few
   distinct keys (many FIFO ties). This is the engine's shape under
   10 Gbps line-rate traffic, where most adds land within a microsecond
   of the clock; the uniform delays of the rows above almost never
   build it. *)
let dense_pending = 256
let dense_delay prng = Prng.int prng 16

let queue_dense_heap =
  let heap = Heap.create () in
  let prng = Prng.create ~seed:6 in
  let now = ref 0 in
  for _ = 1 to dense_pending do
    Heap.add heap ~key:(dense_delay prng) 0
  done;
  Test.make ~name:"event-queue dense-tick add+pop (heap baseline)"
    (Staged.stage (fun () ->
         now := heap_pop heap;
         Heap.add heap ~key:(!now + dense_delay prng) 0))

let queue_dense_wheel =
  let wheel = Wheel.create () in
  let prng = Prng.create ~seed:6 in
  let now = ref 0 in
  for _ = 1 to dense_pending do
    wheel_add wheel ~key:(dense_delay prng)
  done;
  Test.make ~name:"event-queue dense-tick add+pop (wheel)"
    (Staged.stage (fun () ->
         now := wheel_pop wheel;
         wheel_add wheel ~key:(!now + dense_delay prng)))

(* RTO churn. A TCP sender re-arms its retransmit timer on every ACK,
   so almost no timer ever fires. The queue unlinks the cancelled id at
   once; the pre-wheel generation-counter idiom left every superseded
   timer in the heap as a zombie to pop and discard at its original
   deadline. *)
let rto = 200_000 (* 200us *)
let ack_gap = 2_000 (* one ACK every 2us: ~100 zombies resident *)

let churn_wheel =
  let wheel = Wheel.create () in
  let now = ref 0 in
  let id = Wheel.alloc wheel in
  Wheel.schedule wheel id ~key:rto;
  Test.make ~name:"rto churn cancel+rearm (wheel)"
    (Staged.stage (fun () ->
         ignore (Wheel.cancel wheel id : bool);
         now := !now + ack_gap;
         Wheel.schedule wheel id ~key:(!now + rto)))

let churn_heap_zombies =
  let heap = Heap.create () in
  let now = ref 0 in
  let generation = ref 0 in
  Test.make ~name:"rto churn zombie discard (heap baseline)"
    (Staged.stage (fun () ->
         now := !now + ack_gap;
         incr generation;
         Heap.add heap ~key:(!now + rto) !generation;
         (* Expired zombies fire and are discarded by the generation
            check — the cost the cancellable timer removes. *)
         let rec drain () =
           if (not (Heap.is_empty heap)) && Heap.top_key heap <= !now then begin
             let gen = Heap.top heap in
             Heap.drop heap;
             if gen = !generation then ();
             drain ()
           end
         in
         drain ()))

(* End-to-end: a live engine with 100 periodic timers (the shape of a
   testbed's pollers, samplers, and flush clocks), advanced 100us per
   iteration. *)
let engine_timers =
  let engine = Engine.create ~label:"bench-wheel" () in
  let prng = Prng.create ~seed:5 in
  for _ = 1 to 100 do
    let period = 1_000 + Prng.int prng 100_000 in
    ignore (Engine.periodic engine ~period (fun () -> ()))
  done;
  let horizon = ref 0 in
  Test.make ~name:"engine 100-timer run (wheel)"
    (Staged.stage (fun () ->
         horizon := !horizon + 100_000;
         Engine.run ~until:!horizon engine))

(* The per-frame timer rhythm (a port's serializer, a host's stack
   queue): one Engine.Timer re-armed from its own callback, so each
   iteration is one dispatch plus a re-schedule of the id that just
   fired. *)
let engine_timer_rearm =
  let engine = Engine.create ~label:"bench-timer-rearm" () in
  let tm = Engine.Timer.create engine ignore in
  Engine.Timer.set_callback tm (fun () ->
      Engine.Timer.reschedule tm ~delay:1_000);
  Engine.Timer.reschedule tm ~delay:1_000;
  Test.make ~name:"engine timer fire+re-arm (in place)"
    (Staged.stage (fun () -> ignore (Engine.step engine : bool)))

let test_switch_forward =
  let engine = Engine.create () in
  let sw =
    Switch.create engine ~name:"bench" ~ports:4
      ~config:Switch.default_config ()
  in
  for port = 0 to 3 do
    Switch.connect sw ~port ~rate:(Rate.gbps 10.0) ~prop_delay:300
      ~deliver:(fun _ -> ())
      ()
  done;
  Switch.add_route sw (Mac.host 2) 1;
  Switch.set_mirror sw ~monitor:3 ~mirrored:[ 0; 1; 2 ];
  Test.make ~name:"switch ingress+forward+mirror (amortized)"
    (Staged.stage (fun () ->
         Switch.ingress sw ~port:0 sample_packet;
         (* Drain so queues do not grow unboundedly. *)
         Engine.run engine))

(* Telemetry overhead guard (ISSUE acceptance: the disabled hot path
   must be a single predictable branch, so instrumenting the simulator
   costs <5% when --metrics-out is absent). Compare the disabled
   counter/histogram updates against the enabled ones. *)
let test_telemetry_disabled =
  let reg = Metrics.create ~enabled:false () in
  let c = Metrics.counter ~registry:reg ~subsystem:"bench" ~name:"noop" () in
  let h =
    Metrics.histogram ~registry:reg ~subsystem:"bench" ~name:"noop_h" ()
  in
  let tick = ref 0 in
  Test.make ~name:"telemetry disabled counter+histogram (no-op)"
    (Staged.stage (fun () ->
         incr tick;
         Metrics.Counter.incr c;
         Metrics.Histogram.observe h !tick))

let test_telemetry_enabled =
  let reg = Metrics.create ~enabled:true () in
  let c = Metrics.counter ~registry:reg ~subsystem:"bench" ~name:"hot" () in
  let h =
    Metrics.histogram ~registry:reg ~subsystem:"bench" ~name:"hot_h" ()
  in
  let tick = ref 0 in
  Test.make ~name:"telemetry enabled counter+histogram"
    (Staged.stage (fun () ->
         incr tick;
         Metrics.Counter.incr c;
         Metrics.Histogram.observe h !tick))

(* Same guard as the journal's instrumentation sites: the event body is
   only allocated behind [Journal.enabled], so a disabled journal costs
   one branch per potential event. *)
let test_journal_disabled =
  let j = Journal.create ~enabled:false () in
  let tick = ref 0 in
  Test.make ~name:"journal disabled (guarded record, no-op)"
    (Staged.stage (fun () ->
         incr tick;
         if Journal.enabled j then
           Journal.record j ~ts:!tick
             (Journal.Packet_drop
                { switch = "bench"; port = 0; mirror = false })))

let test_journal_enabled =
  let j = Journal.create ~enabled:true ~capacity:4096 () in
  let tick = ref 0 in
  Test.make ~name:"journal enabled (record into ring)"
    (Staged.stage (fun () ->
         incr tick;
         if Journal.enabled j then
           Journal.record j ~ts:!tick
             (Journal.Packet_drop
                { switch = "bench"; port = 0; mirror = false })))

(* ---- sketch tier vs exact flow table (bounded-state collector) ----

   The same 64k-key stream through the count-min sketch, the tiered
   sample path (tick + lookup miss + conservative update), and the
   exact table's touch — the per-sample costs the ISSUE's 2x bound is
   about. *)

let sketch_keys =
  Array.init 65_536 (fun i ->
      {
        FK.src_ip = Ip.of_int (0x0a00_0000 lor i);
        dst_ip = Ip.of_int (0x0b00_0000 lor (i lsr 4));
        src_port = 1_024 + (i land 0x3FFF);
        dst_port = 80;
        protocol = 6;
      })

let next_key =
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 0xFFFF;
    Array.unsafe_get sketch_keys !i

let test_cms_update =
  let cms = Count_min.create () in
  Test.make ~name:"cms conservative update (sketch tier)"
    (Staged.stage (fun () -> ignore (Count_min.update cms (next_key ()) 1460)))

let test_cms_query =
  let cms = Count_min.create () in
  Array.iter (fun key -> ignore (Count_min.update cms key 1460)) sketch_keys;
  Test.make ~name:"cms query"
    (Staged.stage (fun () -> ignore (Count_min.query cms (next_key ()))))

let test_tiered_sample =
  (* An unreachable promotion threshold keeps every key on the
     sketch-only path: tick + exact-tier miss + conservative update,
     the cost mice pay per sample. *)
  let config = { Tiered.default_config with Tiered.promote_bytes = max_int } in
  let tiered =
    Tiered.create ~config ~switch:0 ~flow_timeout:(Time_u.s 10)
      ~journal:Journal.default ()
  in
  let now = ref 0 in
  Test.make ~name:"tiered sample (mouse, sketch-only path)"
    (Staged.stage (fun () ->
         now := !now + 1_000;
         Tiered.tick tiered ~now:!now;
         ignore
           (Tiered.sample tiered ~key:(next_key ()) ~now:!now ~bytes:1460
              ~max_rate:(Rate.gbps 10.0) ~dst_mac:(Mac.host 1))))

let test_flow_table_touch =
  let table = Flow_table.create ~timeout:(Time_u.s 3600) () in
  let mac = Mac.host 1 in
  let now = ref 0 in
  Test.make ~name:"flow table touch (exact baseline)"
    (Staged.stage (fun () ->
         now := !now + 1_000;
         ignore
           (Flow_table.touch table ~key:(next_key ()) ~time:!now ~dst_mac:mac
              ())))

(* ---- sharded-engine speedup (wall clock, not Bechamel) ----

   One k = 16 fat-tree stride workload under static routing, run on
   the classic single-domain engine and again on 4 shard domains
   (pod-partitioned, conservative lookahead = the 5 us core delay).
   The row value is the dimensionless wall-clock ratio single/sharded,
   so > 1.0 is a parallel win. It lives outside Bechamel because one
   "iteration" is a whole experiment.

   On a single-core runner the shard domains time-slice instead of
   overlapping and the barriers are pure overhead, so the honest
   expectation there is <= 1.0; CI therefore gates this row with a
   wide tolerance override rather than the default band. *)
let shard_speedup_row () =
  let wall shards =
    let spec =
      {
        Planck.Testbed.default_spec with
        Planck.Testbed.topology = Planck.Testbed.Fat_tree { k = 16 };
        alts = Some 1;
        shards;
        core_prop_delay =
          Some Planck_topology.Fat_tree.default_core_prop_delay;
      }
    in
    let t0 = Unix.gettimeofday () in
    let s =
      Planck.Experiment.run ~spec ~scheme:Planck.Scheme.Static
        ~workload:(Planck.Experiment.Stride 8) ~size:(64 * 1024)
        ~horizon:(Time_u.s 30) ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    if not s.Planck.Experiment.all_completed then
      Printf.printf "  [shard-speedup-k16: %s arm left incomplete flows]\n%!"
        (match shards with None -> "single-domain" | Some n ->
          string_of_int n ^ "-shard");
    wall
  in
  let single = wall None in
  let sharded = wall (Some 4) in
  let speedup = single /. sharded in
  Printf.printf "  %-55s %10.2fx (single %.1fs / 4-shard %.1fs)\n%!"
    "sharded engine speedup (k=16, 4 domains)" speedup single sharded;
  {
    Bench_gate.id = "shard-speedup-k16";
    name = "sharded engine speedup (k=16 fat-tree, 4 domains, wall ratio)";
    ns_per_op = Some speedup;
  }

(* Custom rows: measured by their own harness, joined into the same
   gate row list as the Bechamel micros. *)
let custom_rows : (string * (unit -> Bench_gate.row)) list =
  [ ("shard-speedup-k16", shard_speedup_row) ]

(* Each micro carries a stable kebab-case id — the join key the
   bench-gate (--check/--trend) matches rows on across BENCH_*.json
   generations. Display names stay human-oriented and may change;
   ids must not. *)
let benchmarks =
  [
    ("packet-serialize", test_serialize);
    ("packet-parse", test_parse);
    ("rate-estimator-update", test_estimator);
    ("event-heap-add-pop", test_heap);
    ("event-queue-transient-heap", queue_transient_heap);
    ("event-queue-transient-wheel", queue_transient_wheel);
    ("event-queue-8k-heap", queue_steady_heap);
    ("event-queue-8k-wheel", queue_steady_wheel);
    ("event-queue-dense-tick-heap", queue_dense_heap);
    ("event-queue-dense-tick-wheel", queue_dense_wheel);
    ("rto-churn-wheel", churn_wheel);
    ("rto-churn-heap-zombies", churn_heap_zombies);
    ("engine-100-timer-wheel", engine_timers);
    ("engine-timer-rearm", engine_timer_rearm);
    ("switch-forward-mirror", test_switch_forward);
    ("cms-update", test_cms_update);
    ("cms-query", test_cms_query);
    ("tiered-sample-mouse", test_tiered_sample);
    ("flow-table-touch", test_flow_table_touch);
    ("telemetry-disabled", test_telemetry_disabled);
    ("telemetry-enabled", test_telemetry_enabled);
    ("journal-disabled", test_journal_disabled);
    ("journal-enabled", test_journal_enabled);
  ]

(* Runs every benchmark and returns one gate row per declared micro —
   declared order, not hashtable order, and a row with [ns_per_op =
   None] when the OLS analyzer produces no estimate, so --check can
   tell "missing" from "regressed". [recheck] sees the Bechamel rows and
   names those to measure once more (the gate's regressed rows); each
   keeps the faster of its two estimates. Custom rows are measured once,
   after every Bechamel row (see below). *)
let run ?(only = []) ?(recheck = fun _ -> []) () =
  Exp_common.section "Bechamel microbenchmarks (hot paths)";
  let selected, selected_custom =
    match only with
    | [] -> (benchmarks, custom_rows)
    | ids ->
        List.iter
          (fun id ->
            if
              (not (List.mem_assoc id benchmarks))
              && not (List.mem_assoc id custom_rows)
            then begin
              Printf.eprintf "no micro with id %s\n" id;
              exit 1
            end)
          ids;
        ( List.filter (fun (id, _) -> List.mem id ids) benchmarks,
          List.filter (fun (id, _) -> List.mem id ids) custom_rows )
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let run_one (id, test) =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let estimate_once () =
      let raw = Benchmark.all cfg instances test in
      let results = List.map (fun i -> Analyze.all ols i raw) instances in
      let results = Analyze.merge ols instances results in
      let elt_names = List.map Test.Elt.name (Test.elements test) in
      Hashtbl.fold
        (fun _measure by_name acc ->
          List.fold_left
            (fun acc elt ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match Hashtbl.find_opt by_name elt with
                  | Some result -> (
                      match Analyze.OLS.estimates result with
                      | Some [ est ] -> Some est
                      | _ -> None)
                  | None -> None))
            acc elt_names)
        results None
    in
    (* Contention noise is one-sided — a neighbour can only make a
       sample slower — so the minimum over a few independent
       measurement windows is far stabler than any single window.
       Baseline recordings and gate runs share this path, so the
       comparison stays like for like. *)
    let est =
      List.fold_left
        (fun acc () ->
          match (acc, estimate_once ()) with
          | None, e | e, None -> e
          | Some a, Some b -> Some (Float.min a b))
        None
        [ (); (); (); (); () ]
    in
    let name = Test.name test in
    (match est with
    | Some est -> Printf.printf "  %-55s %10.1f ns/op\n%!" name est
    | None -> Printf.printf "  %-55s (no estimate)\n%!" name);
    { Bench_gate.id; name; ns_per_op = est }
  in
  (* Every Bechamel measurement, re-measures included, must come before
     the custom rows. The k=16 sharded run leaves a heap of ~20M words
     that OCaml 5.1 does not shrink, and Bechamel's per-sample
     stabilisation (a [Gc.compact]) then inflates every later estimate
     by 10x or more. The rows are bound with a [let] because OCaml
     evaluates [@]'s right operand first. *)
  let rows = List.map run_one selected in
  let rows =
    match recheck rows with
    | [] -> rows
    | ids ->
        Printf.printf
          "\n%d row(s) regressed; re-measuring once to shed scheduler \
           noise...\n\
           %!"
          (List.length ids);
        List.map2
          (fun bench (row : Bench_gate.row) ->
            if not (List.mem row.Bench_gate.id ids) then row
            else
              match (row.Bench_gate.ns_per_op, (run_one bench).ns_per_op) with
              | Some first, Some again ->
                  { row with ns_per_op = Some (Float.min first again) }
              | _ -> row)
          selected rows
  in
  rows @ List.map (fun (_, measure) -> measure ()) selected_custom
