(* The four workloads. One pass of a workload builds its testbeds, runs
   them, and measures itself. It calls only public library functions
   (Testbed, Scheme, Generate, Runner, Engine, Flow, and the collector,
   TE and journal hooks), so the benchmark measures the library as a
   user drives it. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Engine = Planck_netsim.Engine
module Shard = Planck_netsim.Shard
module Switch = Planck_netsim.Switch
module Fabric = Planck_topology.Fabric
module Flow = Planck_tcp.Flow
module Collector = Planck_collector.Collector
module Controller = Planck_controller.Controller
module Te = Planck_controller.Te
module Generate = Planck_workloads.Generate
module Runner = Planck_workloads.Runner
module Journal = Planck_telemetry.Journal
module Metrics = Planck_telemetry.Metrics
module Testbed = Planck.Testbed
module Scheme = Planck.Scheme

type t = Te_stride | Reroute | Churn | Fanout_k16

let all = [ Te_stride; Reroute; Churn; Fanout_k16 ]

let name = function
  | Te_stride -> "te-stride"
  | Reroute -> "reroute"
  | Churn -> "churn"
  | Fanout_k16 -> "fanout-k16"

let of_name s = List.find_opt (fun w -> name w = s) all

(* [Smoke] is the reduced scale the runtest smoke uses. *)
type scale = Full | Smoke

let scale_name = function Full -> "full" | Smoke -> "smoke"
let scale_of_name = function "full" -> Some Full | "smoke" -> Some Smoke | _ -> None

let mib n = n * 1024 * 1024
let link_gbps = Rate.to_gbps Testbed.default_spec.Testbed.link_rate

(* Everything one pass reports. Passes of one seed must agree on every
   simulated field; [digest] is the check that they do. *)
type pass = {
  traced : bool;
  setup_s : float;  (** Testbed.create + Scheme.deploy, summed *)
  run_s : float;  (** host time of the run phase *)
  calibration : float;
      (** host seconds to seconds on the calibration host: the reference
          loop's nominal time over its median time around this pass *)
  sim_ms : float;  (** simulated time the run phase advanced *)
  peak_rss_mb : float;
  attempted : int;
  failed : int;
  goodput_gbps : float;
  fct_ms : float list;
  reroute_ms : float list;
  detect_ms : float list;
  digest : string;
  counters : (string * float) list;
  samples : int array;  (** CPU samples per {!Layer.all}; traced only *)
  spans : Spans.span list;
  errors : string list;
}

type ctx = {
  traced : bool;
  spans : Spans.t;
  counters : (string, float) Hashtbl.t;
  digest : Buffer.t;
  mutable attempted : int;
  mutable failed : int;
  mutable sim_ms : float;
  mutable fct_ms : float list;
  mutable reroute_ms : float list;
  mutable detect_ms : float list;
  mutable goodput_gbps : float;
  mutable errors : string list;
}

let add ctx key v =
  Hashtbl.replace ctx.counters key
    (v +. Option.value ~default:0. (Hashtbl.find_opt ctx.counters key))

let add_int ctx key v = add ctx key (float_of_int v)

let raise_to ctx key v =
  match Hashtbl.find_opt ctx.counters key with
  | Some old when old >= v -> ()
  | Some _ | None -> Hashtbl.replace ctx.counters key v

let digest_int ctx v =
  Buffer.add_string ctx.digest (string_of_int v);
  Buffer.add_char ctx.digest ' '

let error ctx fmt = Printf.ksprintf (fun s -> ctx.errors <- s :: ctx.errors) fmt

let setup ctx ?flow_table spec scheme =
  let tb =
    Spans.record ctx.spans ~kind:Setup "Testbed.create" (fun () ->
        Testbed.create spec)
  in
  let deployed =
    Spans.record ctx.spans ~kind:Setup "Scheme.deploy" (fun () ->
        Scheme.deploy ?flow_table tb scheme)
  in
  (* The metric registry holds the sink and sketch counts, which only
     exist where the scheme deploys collectors; elsewhere it stays off
     and costs the traced run nothing. *)
  if ctx.traced && Option.is_some deployed.Scheme.controller then
    Metrics.set_enabled Metrics.default true;
  (tb, deployed)

let allocated_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

(* The run phase: host time, GC work and, when traced, CPU samples.
   Gc.quick_stat rather than Gc.minor_words: it also counts what the
   shard domains allocated once they have been joined. *)
let run_phase ctx name f =
  let before = Gc.quick_stat () in
  if ctx.traced then Sampler.start ();
  let result =
    Fun.protect
      ~finally:(fun () -> if ctx.traced then Sampler.stop ())
      (fun () -> Spans.record ctx.spans ~kind:Run name f)
  in
  let after = Gc.quick_stat () in
  add ctx "engine.alloc_words" (allocated_words after -. allocated_words before);
  add_int ctx "gc.major_collections"
    (after.major_collections - before.major_collections);
  result

let input ctx name f = Spans.record ctx.spans ~kind:Input name f

let engines (tb : Testbed.t) =
  match tb.shard with
  | None -> [ tb.engine ]
  | Some g -> List.init (Shard.shards g) (Shard.engine g)

(* Per-layer counts read from a finished testbed. *)
let observe ctx (tb : Testbed.t) (deployed : Scheme.deployed) =
  let engines = engines tb in
  let events = List.map Engine.events_processed engines in
  let total = List.fold_left ( + ) 0 events in
  add_int ctx "engine.events" total;
  digest_int ctx total;
  List.iter
    (fun e ->
      raise_to ctx "engine.pending_max" (float_of_int (Engine.max_pending e));
      add_int ctx "engine.timers_cancelled" (Engine.timers_cancelled e))
    engines;
  (match events with
  | [] | [ _ ] -> ()
  | _ ->
      let mean = float_of_int total /. float_of_int (List.length events) in
      let most = float_of_int (List.fold_left max 0 events) in
      raise_to ctx "shard.event_imbalance_pct" (100. *. (most -. mean) /. mean));
  let fabric = tb.fabric in
  for s = 0 to Fabric.switch_count fabric - 1 do
    let sw = Fabric.switch fabric s in
    add_int ctx "switch.data_drops" (Switch.total_data_drops sw);
    add_int ctx "switch.mirror_drops" (Switch.total_mirror_drops sw);
    Option.iter
      (fun port ->
        add_int ctx "switch.monitor_tx" (Switch.port_stats sw ~port).tx_packets)
      (Switch.monitor_port sw)
  done;
  Option.iter
    (fun c ->
      List.iter
        (fun col ->
          add_int ctx "collector.samples" (Collector.samples_seen col);
          add_int ctx "collector.data_samples" (Collector.data_samples col);
          add_int ctx "collector.flows_tracked" (Collector.flows_tracked col))
        (Controller.collectors c))
    deployed.Scheme.controller;
  Option.iter
    (fun te ->
      add_int ctx "te.notifications" (Te.notifications te);
      add_int ctx "te.reroutes" (Te.reroutes te))
    deployed.Scheme.te

let observe_flows ctx (results : Runner.flow_result list) =
  List.iter
    (fun (r : Runner.flow_result) ->
      ctx.attempted <- ctx.attempted + 1;
      add_int ctx "tcp.retransmits" r.retransmits;
      add_int ctx "tcp.timeouts" r.timeouts;
      digest_int ctx r.src;
      digest_int ctx r.dst;
      match r.finish_time with
      | Some finish when r.completed ->
          digest_int ctx finish;
          ctx.fct_ms <- Time.to_float_ms (finish - r.start_time) :: ctx.fct_ms
      | Some _ | None ->
          digest_int ctx (-1);
          ctx.failed <- ctx.failed + 1)
    results;
  ctx.goodput_gbps <- Runner.average_goodput_gbps results

let finish_run ctx (tb : Testbed.t) deployed results =
  ctx.sim_ms <- ctx.sim_ms +. Time.to_float_ms (Engine.now tb.engine);
  observe ctx tb deployed;
  observe_flows ctx results

(* te-stride: the Fig 14 cell. Mirroring, sink drain, the collectors
   and TE decisions run all the time under steady elephant traffic. *)
let te_stride ctx ~seed ~scale =
  let size = match scale with Full -> mib 8 | Smoke -> mib 1 in
  let tb, deployed =
    setup ctx (Testbed.paper_fat_tree ~seed ()) Scheme.planck_te_default
  in
  let pairs =
    input ctx "Generate.stride" (fun () ->
        Generate.stride ~hosts:(Testbed.host_count tb) ~k:8)
  in
  let results =
    run_phase ctx "Runner.run_pairs" (fun () ->
        Runner.run_pairs tb.engine ~endpoints:tb.endpoints ~pairs ~size
          ~horizon:(Time.ms 500) ())
  in
  finish_run ctx tb deployed results

(* churn: many short flows under PlanckTE with the tiered flow table,
   so connection set-up, flow starts from scheduled callbacks and
   flow-state writes (sketch inserts, promotions, demotions) dominate
   rather than steady reads. *)
let churn ctx ~seed ~scale =
  let flows = match scale with Full -> 3_000 | Smoke -> 500 in
  let tb, deployed =
    setup ctx ~flow_table:Scheme.tiered_default
      (Testbed.paper_fat_tree ~seed ())
      Scheme.planck_te_default
  in
  let arrivals =
    input ctx "Generate.churn" (fun () ->
        Generate.churn (Prng.create ~seed)
          ~hosts:(Testbed.host_count tb)
          ~spec:{ Generate.default_churn with Generate.flows })
  in
  let results =
    run_phase ctx "Runner.run_churn" (fun () ->
        Runner.run_churn tb.engine ~endpoints:tb.endpoints ~arrivals
          ~horizon:(Time.s 2) ())
  in
  finish_run ctx tb deployed results

(* fanout-k16: scale and sharding. 1,024 hosts, two shard domains, the
   static scheme: no mirroring, collector or TE, so a change to those
   must leave this workload unchanged. *)
let fanout_k16 ctx ~seed ~scale =
  let k, size = match scale with Full -> (16, 64 * 1024) | Smoke -> (8, 64 * 1024) in
  let spec =
    {
      (Testbed.paper_fat_tree ~seed ()) with
      Testbed.topology = Testbed.Fat_tree { k };
      alts = Some 1;
      shards = Some 2;
      core_prop_delay = Some Planck_topology.Fat_tree.default_core_prop_delay;
    }
  in
  let tb, deployed = setup ctx spec Scheme.Static in
  let group = Option.get tb.shard in
  let pairs =
    input ctx "Generate.stride" (fun () ->
        Generate.stride ~hosts:(Testbed.host_count tb) ~k:8)
  in
  let results =
    run_phase ctx "Runner.run_pairs_sharded" (fun () ->
        Runner.run_pairs_sharded group
          ~shard_of_src:(Fabric.shard_of_host tb.fabric)
          ~endpoints:tb.endpoints ~pairs ~size ~horizon:(Time.ms 500) ())
  in
  finish_run ctx tb deployed results

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* One Fig 15/16 episode: flow h0->h8 alone for 5 ms, then the
   colliding flow h1->h9, run to 10 ms. The journal is on and streams
   to a writer that only counts, so journal serialisation is paid for
   but nothing is kept. *)
let episode ctx ~seed =
  (* Each episode starts from a collected heap, so its set-up, run and
     peak memory do not depend on the garbage of the one before. *)
  Gc.full_major ();
  Spans.record ctx.spans ~kind:Group "episode" @@ fun () ->
  let collide_at = Time.ms 5 and stop_at = Time.ms 10 in
  let colliding = ref None in
  let detected = ref None and rerouted = ref None and effective = ref false in
  let journal_events = ref 0 and writer_ns = ref 0 in
  let effective_tag = "\"ev\":\"reroute_effective\"" in
  let count line =
    incr journal_events;
    if (not !effective) && !colliding <> None && contains ~sub:effective_tag line
    then effective := true
  in
  Journal.set_writer Journal.default
    (Some
       (if ctx.traced then (fun line ->
          let t0 = Spans.now_ns () in
          count line;
          writer_ns := !writer_ns + (Spans.now_ns () - t0))
        else count));
  (* TE installs its reroute_effective watch only when the journal is
     on at deploy time. *)
  Journal.set_enabled Journal.default true;
  let tb, deployed =
    setup ctx (Testbed.paper_fat_tree ~seed ()) Scheme.planck_te_default
  in
  (* Detection is the first congestion event that names the colliding
     flow: flow 1 alone already crosses the threshold. *)
  List.iter
    (fun c ->
      Collector.subscribe_congestion c
        ~threshold:Te.default_config.Te.congestion_threshold (fun e ->
          match !colliding with
          | Some key
            when !detected = None
                 && List.exists
                      (fun (k, _, _) -> Planck_packet.Flow_key.equal k key)
                      e.Collector.flows ->
              detected := Some e.Collector.time
          | Some _ | None -> ()))
    (Controller.collectors (Option.get deployed.Scheme.controller));
  Te.on_reroute (Option.get deployed.Scheme.te)
    (fun time _key ~old_mac:_ ~new_mac:_ ->
      if !rerouted = None && time >= collide_at then rerouted := Some time);
  let endpoints = tb.Testbed.endpoints in
  let flow1 =
    Flow.start ~src:endpoints.(0) ~dst:endpoints.(8) ~src_port:1 ~dst_port:2
      ~size:(1 lsl 40) ()
  in
  run_phase ctx "Engine.run" (fun () -> Engine.run ~until:collide_at tb.engine);
  let flow2 =
    Flow.start ~src:endpoints.(1) ~dst:endpoints.(9) ~src_port:3 ~dst_port:4
      ~size:(1 lsl 40) ()
  in
  colliding := Some (Flow.key flow2);
  let acked1 = Flow.bytes_acked flow1 in
  run_phase ctx "Engine.run" (fun () -> Engine.run ~until:stop_at tb.engine);
  Journal.set_enabled Journal.default false;
  Journal.set_writer Journal.default None;
  Journal.clear Journal.default;
  ctx.sim_ms <- ctx.sim_ms +. Time.to_float_ms (Engine.now tb.engine);
  observe ctx tb deployed;
  add_int ctx "journal.events" !journal_events;
  if ctx.traced then add ctx "journal.writer_s" (float_of_int !writer_ns /. 1e9);
  List.iter
    (fun f ->
      add_int ctx "tcp.retransmits" (Flow.retransmits f);
      add_int ctx "tcp.timeouts" (Flow.timeouts f);
      digest_int ctx (Flow.bytes_acked f))
    [ flow1; flow2 ];
  let window = stop_at - collide_at in
  let delivered = Flow.bytes_acked flow1 - acked1 + Flow.bytes_acked flow2 in
  ctx.attempted <- ctx.attempted + 1;
  (match !rerouted with
  | Some t ->
      digest_int ctx t;
      ctx.reroute_ms <- Time.to_float_ms (t - collide_at) :: ctx.reroute_ms
  | None ->
      digest_int ctx (-1);
      ctx.failed <- ctx.failed + 1);
  Option.iter
    (fun t -> ctx.detect_ms <- Time.to_float_ms (t - collide_at) :: ctx.detect_ms)
    !detected;
  if not !effective then
    error ctx "reroute episode seed %d: no reroute_effective in the journal" seed;
  Rate.to_gbps (Rate.of_bytes_per delivered window) /. 2.

let reroute ctx ~seed ~scale =
  let episodes = match scale with Full -> 20 | Smoke -> 2 in
  let goodputs = List.init episodes (fun i -> episode ctx ~seed:(seed + i)) in
  ctx.goodput_gbps <- Planck_util.Stats.mean goodputs

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Counts only the default metric registry holds (sink and sketch state
   lives inside the collectors), summed over every label. The registry
   is enabled on traced passes only. *)
let registry_counts ctx =
  List.iter
    (fun (s : Metrics.snapshot) ->
      match (s.subsystem, s.name, s.value) with
      | "sink", "ring_drops", Metrics.Counter_value v
      | "sketch", ("promotions" | "demotions"), Metrics.Counter_value v ->
          add_int ctx (s.subsystem ^ "." ^ s.name) v
      | _ -> ())
    (Metrics.snapshot Metrics.default)

let check ctx =
  if ctx.failed > 0 then
    error ctx "%d of %d attempted failed" ctx.failed ctx.attempted;
  if not (ctx.goodput_gbps > 0. && ctx.goodput_gbps <= link_gbps) then
    error ctx "goodput %.4f Gbps outside (0, %.1f]" ctx.goodput_gbps link_gbps

(* The counts every pass reports, 0 where a workload lacks the layer. *)
let counts =
  [
    "engine.events";
    "engine.pending_max";
    "engine.timers_cancelled";
    "engine.alloc_words";
    "gc.major_collections";
    "shard.event_imbalance_pct";
    "switch.data_drops";
    "switch.mirror_drops";
    "switch.monitor_tx";
    "tcp.retransmits";
    "tcp.timeouts";
    "collector.samples";
    "collector.data_samples";
    "collector.flows_tracked";
    "te.notifications";
    "te.reroutes";
    "journal.events";
  ]

(* The counts only a traced pass takes: the metric registry is on and
   the journal writer is timed. *)
let traced_counts =
  [ "sink.ring_drops"; "sketch.promotions"; "sketch.demotions"; "journal.writer_s" ]

let run w ~seed ~scale ~traced =
  let counters = Hashtbl.create 32 in
  List.iter
    (fun k -> Hashtbl.replace counters k 0.)
    (counts @ if traced then traced_counts else []);
  let ctx =
    {
      traced;
      spans = Spans.create ();
      counters;
      digest = Buffer.create 4096;
      attempted = 0;
      failed = 0;
      sim_ms = 0.;
      fct_ms = [];
      reroute_ms = [];
      detect_ms = [];
      goodput_gbps = 0.;
      errors = [];
    }
  in
  let domains = match w with Fanout_k16 -> 2 | Te_stride | Reroute | Churn -> 1 in
  let ref_before = Reference.samples ~domains ~n:5 in
  (match w with
  | Te_stride -> te_stride ctx ~seed ~scale
  | Reroute -> reroute ctx ~seed ~scale
  | Churn -> churn ctx ~seed ~scale
  | Fanout_k16 -> fanout_k16 ctx ~seed ~scale);
  (* The workload's garbage would slow the loop and so hide part of a
     slowdown; collect it first. *)
  Gc.full_major ();
  let ref_after = Reference.samples ~domains ~n:5 in
  if traced then registry_counts ctx;
  check ctx;
  let spans = Spans.spans ctx.spans in
  {
    traced;
    setup_s = Spans.total_s ~kind:Setup spans;
    run_s = Spans.total_s ~kind:Run spans;
    calibration =
      Reference.nominal_s ~domains /. Planck_util.Stats.median (ref_before @ ref_after);
    sim_ms = ctx.sim_ms;
    peak_rss_mb = peak_rss_mb ();
    attempted = ctx.attempted;
    failed = ctx.failed;
    goodput_gbps = ctx.goodput_gbps;
    fct_ms = List.rev ctx.fct_ms;
    reroute_ms = List.rev ctx.reroute_ms;
    detect_ms = List.rev ctx.detect_ms;
    digest = Digest.to_hex (Digest.string (Buffer.contents ctx.digest));
    counters =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.counters []);
    samples = (if traced then Sampler.snapshot () else [||]);
    spans;
    errors = List.rev ctx.errors;
  }
