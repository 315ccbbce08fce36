(* The bounded-state collector evaluation: resident state and memory
   at one million concurrent flows (exact table vs sketch tier),
   count-min estimate accuracy against ground truth, and TE decision
   agreement between the exact and tiered backends on the
   elephant-dominated reference workload. *)

open Exp_common
module Journal = Planck_telemetry.Journal
module Metrics = Planck_telemetry.Metrics
module Count_min = Planck_sketch.Count_min
module Tiered = Planck_sketch.Tiered_table
module Flow_table = Planck_collector.Flow_table
module Ip = Planck_packet.Ipv4_addr
module Mac = Planck_packet.Mac
module Generate = Planck_workloads.Generate

(* Distinct 5-tuples for up to 2^20 flows: the low bits of the source
   address alone separate them; ports add realistic spread. *)
let key_of i =
  {
    FK.src_ip = Ip.of_int (0x0a00_0000 lor (i land 0xFFFFF));
    dst_ip = Ip.of_int (0x0b00_0000 lor (i lsr 8));
    src_port = 1_024 + (i land 0x7FFF);
    dst_port = 80;
    protocol = 6;
  }

let set_gauge name v =
  Metrics.Gauge.set_int (Metrics.gauge ~subsystem:"bounded_state" ~name ()) v

let mtu_payload = 1_460

(* ---- resident state at 1M concurrent flows ---- *)

let state_bound () =
  section "Bounded state: 1,000,000 concurrent flows, exact vs tiered";
  let n = 1_000_000 in
  let elephant_every = 1_000 in
  let elephant_samples = 30 in
  let mac = Mac.host 1 in
  let rate = rate_10g in
  (* Exact backend: one entry per sampled 5-tuple, no matter what. *)
  let exact = Flow_table.create ~timeout:(Time.s 10) () in
  for i = 0 to n - 1 do
    ignore
      (Flow_table.touch exact ~key:(key_of i) ~time:(Time.ns i) ~dst_mac:mac
         ())
  done;
  let exact_entries = Flow_table.size exact in
  let exact_words = Obj.reachable_words (Obj.repr exact) in
  (* Tiered backend: same sample stream; elephants send enough to cross
     the promotion threshold, mice stay in the sketch. *)
  (* Switch id 999 keeps this synthetic instance's "sw999" telemetry
     label clear of the fat-tree runs' real sw0..sw19 counters. *)
  let tiered =
    Tiered.create ~switch:999 ~flow_timeout:(Time.s 10)
      ~journal:Journal.default ()
  in
  let now = ref Time.zero in
  for i = 0 to n - 1 do
    let key = key_of i in
    let samples =
      if i mod elephant_every = 0 then elephant_samples else 1
    in
    for _ = 1 to samples do
      now := !now + Time.ns 30;
      Tiered.tick tiered ~now:!now;
      ignore
        (Tiered.sample tiered ~key ~now:!now ~bytes:mtu_payload ~max_rate:rate
           ~dst_mac:mac)
    done
  done;
  let tiered_exact = Tiered.exact_size tiered in
  let tiered_words = Obj.reachable_words (Obj.repr tiered) in
  let sketch_words = Count_min.words (Tiered.sketch tiered) in
  let ratio = float_of_int exact_entries /. float_of_int (max 1 tiered_exact) in
  note "exact backend:  %d entries, %d words (%.1f words/flow)" exact_entries
    exact_words
    (float_of_int exact_words /. float_of_int n);
  note "tiered backend: %d exact entries (+%d-word sketch), %d words total"
    tiered_exact sketch_words tiered_words;
  note "promotions %d, demotions %d, suppressed %d" (Tiered.promotions tiered)
    (Tiered.demotions tiered)
    (Tiered.suppressed_promotions tiered)
    ;
  note "resident exact entries: %.0fx fewer under the sketch tier" ratio;
  set_gauge "exact_entries_exact_backend" exact_entries;
  set_gauge "exact_entries_tiered_backend" tiered_exact;
  set_gauge "exact_backend_words" exact_words;
  set_gauge "tiered_backend_words" tiered_words;
  set_gauge "sketch_words" sketch_words;
  set_gauge "state_ratio" (int_of_float ratio);
  set_gauge "promotions" (Tiered.promotions tiered);
  set_gauge "demotions" (Tiered.demotions tiered);
  set_gauge "promotions_suppressed" (Tiered.suppressed_promotions tiered)

(* ---- sketch estimate accuracy against ground truth ---- *)

let estimate_accuracy () =
  section "Count-min estimate accuracy (conservative update)";
  let flows = 100_000 in
  let elephant_every = 100 in
  let cms = Count_min.create () in
  let truth = Array.make flows 0 in
  for i = 0 to flows - 1 do
    let bytes =
      if i mod elephant_every = 0 then 100 * mtu_payload else mtu_payload
    in
    truth.(i) <- bytes;
    ignore (Count_min.update cms (key_of i) bytes)
  done;
  let under = ref 0 in
  let over_sum = ref 0.0 in
  let eleph_err_sum = ref 0.0 and eleph_n = ref 0 in
  for i = 0 to flows - 1 do
    let est = Count_min.query cms (key_of i) in
    if est < truth.(i) then incr under;
    over_sum := !over_sum +. float_of_int (est - truth.(i));
    if i mod elephant_every = 0 then begin
      eleph_err_sum :=
        !eleph_err_sum
        +. (float_of_int (est - truth.(i)) /. float_of_int truth.(i) *. 100.0);
      incr eleph_n
    end
  done;
  let mean_over = !over_sum /. float_of_int flows in
  let eleph_err = !eleph_err_sum /. float_of_int !eleph_n in
  note "%d flows into a %dx%d sketch (%d words)" flows (Count_min.depth cms)
    (Count_min.width cms) (Count_min.words cms);
  note "underestimates: %d (count-min guarantees 0)" !under;
  note "mean overestimate %.0f B; elephant relative error %.2f%%" mean_over
    eleph_err;
  set_gauge "accuracy_underestimates" !under;
  set_gauge "accuracy_mean_overestimate_bytes" (int_of_float mean_over);
  set_gauge "accuracy_elephant_error_pct_x100"
    (int_of_float (eleph_err *. 100.0))

(* ---- TE decision agreement, exact vs tiered ---- *)

(* Run the reference elephant-dominated workload under PlanckTE and
   collect the set of flows the controller decided to reroute. *)
let reroute_decisions ~flow_table ~seed ~size =
  let buf = Buffer.create 4096 in
  let was = Journal.enabled Journal.default in
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
      Journal.set_enabled Journal.default was;
      Journal.clear Journal.default)
    (fun () ->
      let summary =
        Experiment.run
          ~spec:(Testbed.paper_fat_tree ~seed ())
          ~scheme:Scheme.planck_te_default ~workload:(Experiment.Stride 8)
          ~size ~flow_table ()
      in
      let decisions =
        match Journal.of_ndjson (Buffer.contents buf) with
        | Error _ -> []
        | Ok events ->
            List.filter_map
              (fun (e : Journal.event) ->
                match e.Journal.body with
                | Journal.Reroute_decision { flow; _ } -> Some flow
                | _ -> None)
              events
      in
      (summary, List.sort_uniq compare decisions))

let te_agreement opts =
  section "TE decision agreement: exact vs tiered flow table (stride-8)";
  let size = (if opts.full then 50 else 5) * 1024 * 1024 in
  let exact_summary, exact_flows =
    reroute_decisions ~flow_table:Scheme.Exact ~seed:opts.seed ~size
  in
  let tiered_summary, tiered_flows =
    reroute_decisions ~flow_table:Scheme.tiered_default ~seed:opts.seed ~size
  in
  let inter =
    List.filter (fun f -> List.mem f tiered_flows) exact_flows
  in
  let union = List.sort_uniq compare (exact_flows @ tiered_flows) in
  let agreement =
    if union = [] then 100.0
    else float_of_int (List.length inter) /. float_of_int (List.length union)
         *. 100.0
  in
  note "exact:  %d reroutes over %d flows, %.3f Gbps mean goodput"
    exact_summary.Experiment.reroutes (List.length exact_flows)
    exact_summary.Experiment.avg_goodput_gbps;
  note "tiered: %d reroutes over %d flows, %.3f Gbps mean goodput"
    tiered_summary.Experiment.reroutes (List.length tiered_flows)
    tiered_summary.Experiment.avg_goodput_gbps;
  note "rerouted-flow agreement: %.0f%% (%d of %d flows)" agreement
    (List.length inter) (List.length union);
  set_gauge "te_agreement_pct" (int_of_float agreement);
  set_gauge "te_reroutes_exact" exact_summary.Experiment.reroutes;
  set_gauge "te_reroutes_tiered" tiered_summary.Experiment.reroutes

(* ---- churn: the workload the sketch tier exists for ---- *)

let churn opts =
  section "Churn workload under the tiered table";
  let spec =
    if opts.full then
      { Generate.default_churn with Generate.flows = 20_000 }
    else Generate.default_churn
  in
  (* The default registry's counters are cumulative across every
     experiment in the process (the state-bound drive, the TE runs);
     diff a snapshot around the run so the numbers are this run's. *)
  let sum name snap =
    List.fold_left
      (fun acc (s : Metrics.snapshot) ->
        match s.Metrics.value with
        | Metrics.Counter_value v
          when s.Metrics.subsystem = "sketch" && s.Metrics.name = name ->
            acc + v
        | _ -> acc)
      0 snap
  in
  let before = Metrics.snapshot Metrics.default in
  let summary =
    Experiment.run
      ~spec:(Testbed.paper_fat_tree ~seed:opts.seed ())
      ~scheme:Scheme.planck_te_default
      ~workload:(Experiment.Churn spec)
      ~size:0 ~flow_table:Scheme.tiered_default ()
  in
  let after = Metrics.snapshot Metrics.default in
  let delta name = sum name after - sum name before in
  note "%d flows launched (%d B mice, %d B elephants every %dth)"
    spec.Generate.flows spec.Generate.mouse_bytes spec.Generate.elephant_bytes
    spec.Generate.elephant_every;
  note "all completed: %b, %d reroutes, %.3f Gbps mean goodput"
    summary.Experiment.all_completed summary.Experiment.reroutes
    summary.Experiment.avg_goodput_gbps;
  if Metrics.enabled Metrics.default then
    note "promotions %d, demotions %d, suppressed %d (all switches)"
      (delta "promotions") (delta "demotions")
      (delta "promotions_suppressed")

let run opts =
  state_bound ();
  estimate_accuracy ();
  te_agreement opts;
  churn opts;
  paper
    "bounded-state extension: the paper's collector keeps one table entry";
  paper
    "per sampled 5-tuple (Sec 3.2.2); the sketch tier bounds resident state";
  paper "at O(sketch + elephants) for millions of concurrent flows."
