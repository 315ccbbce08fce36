(* Bounded-state collector tests: the conservative-update count-min
   sketch, the tiered table's promotion/demotion lifecycle, and
   TE-decision equivalence between the exact and tiered backends. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate
module FK = Planck_packet.Flow_key
module Ip = Planck_packet.Ipv4_addr
module Mac = Planck_packet.Mac
module Journal = Planck_telemetry.Journal
module Metrics = Planck_telemetry.Metrics
module Flow_table = Planck_collector.Flow_table
module Count_min = Planck_sketch.Count_min
module Tiered = Planck_sketch.Tiered_table

(* the buffer-audited wrapper, before [Testbed] is rebound to Planck's *)
let case = Testbed.case

module Testbed = Planck.Testbed
module Scheme = Planck.Scheme
module Experiment = Planck.Experiment

let key_of i =
  {
    FK.src_ip = Ip.of_int (0x0a00_0000 lor (i land 0xFFFF));
    dst_ip = Ip.of_int (0x0b00_0000 lor ((i lsr 3) land 0xFF));
    src_port = 1_024 + (i land 0xFFF);
    dst_port = 80;
    protocol = 6;
  }

(* ---- count-min core ---- *)

let cms_update_returns_estimate () =
  let cms = Count_min.create () in
  let key = key_of 1 in
  Alcotest.(check int) "first update" 1_000 (Count_min.update cms key 1_000);
  Alcotest.(check int) "query agrees" 1_000 (Count_min.query cms key);
  Alcotest.(check int) "second update" 1_500 (Count_min.update cms key 500);
  Alcotest.(check int) "other key empty" 0 (Count_min.query cms (key_of 2))

let cms_halve_and_clear () =
  let cms = Count_min.create () in
  let key = key_of 3 in
  ignore (Count_min.update cms key 1_000);
  Count_min.halve cms;
  Alcotest.(check int) "halved" 500 (Count_min.query cms key);
  Count_min.halve cms;
  Alcotest.(check int) "halved again" 250 (Count_min.query cms key);
  Alcotest.(check bool) "occupied counters" true (Count_min.occupied cms > 0);
  Count_min.clear cms;
  Alcotest.(check int) "cleared" 0 (Count_min.query cms key);
  Alcotest.(check int) "no occupied counters" 0 (Count_min.occupied cms)

let cms_deterministic () =
  let feed cms =
    for i = 0 to 999 do
      ignore (Count_min.update cms (key_of i) (100 + (i mod 1460)))
    done
  in
  let a = Count_min.create ~seed:42 () and b = Count_min.create ~seed:42 () in
  feed a;
  feed b;
  for i = 0 to 999 do
    Alcotest.(check int) "same estimates under same seed"
      (Count_min.query a (key_of i))
      (Count_min.query b (key_of i))
  done;
  let c = Count_min.create ~seed:43 () in
  let differs = ref false in
  for i = 0 to 99 do
    for row = 0 to Count_min.depth c - 1 do
      if
        Count_min.row_index c (key_of i) ~row
        <> Count_min.row_index a (key_of i) ~row
      then differs := true
    done
  done;
  Alcotest.(check bool) "different seed relocates keys" true !differs

(* The seeded row hashes are part of the on-disk/bench contract: a
   silent change to the hash layout would invalidate every recorded
   sketch number. Pin a few (sketch, key, row) -> bucket vectors. *)
let cms_fixed_vectors () =
  let cms = Count_min.create () in
  let check (i, row, expect) =
    Alcotest.(check int)
      (Printf.sprintf "row_index key %d row %d" i row)
      expect
      (Count_min.row_index cms (key_of i) ~row)
  in
  List.iter check
    [
      (0, 0, 10032); (0, 1, 11829); (0, 2, 5114); (0, 3, 985);
      (1, 0, 8060); (1, 1, 11140); (1, 2, 13266); (1, 3, 1826);
      (12345, 0, 11189); (12345, 1, 15158); (12345, 2, 6532); (12345, 3, 14459);
    ]

let cms_never_underestimates_qcheck =
  QCheck.Test.make ~count:50
    ~name:"cms never underestimates; mean overestimate within bound"
    QCheck.(pair (int_range 1 400) (int_range 0 1_000))
    (fun (updates, salt) ->
      (* A deliberately small sketch so collisions actually happen. *)
      let width = 64 in
      let cms = Count_min.create ~seed:salt ~width ~depth:4 () in
      let truth = FK.Table.create 64 in
      let total = ref 0 in
      for i = 0 to updates - 1 do
        let key = key_of ((i * 7) + salt) in
        let bytes = 100 + (i * 37 mod 1_460) in
        total := !total + bytes;
        FK.Table.replace truth key
          (bytes + Option.value ~default:0 (FK.Table.find_opt truth key));
        ignore (Count_min.update cms key bytes)
      done;
      let ok_under = ref true in
      let over = ref 0 in
      FK.Table.iter
        (fun key true_bytes ->
          let est = Count_min.query cms key in
          if est < true_bytes then ok_under := false;
          over := !over + (est - true_bytes))
        truth;
      let keys = max 1 (FK.Table.length truth) in
      let mean_over = float_of_int !over /. float_of_int keys in
      (* epsilon-N style bound, epsilon = 3/width (above e/width), and
         conservative update stays far below it in practice *)
      let bound = 3.0 *. float_of_int !total /. float_of_int width in
      !ok_under && mean_over <= bound)

(* ---- tiered table lifecycle ---- *)

let lifecycle_config =
  {
    Tiered.default_config with
    Tiered.promote_bytes = 3_000;
    sweep_interval = Time.ms 1;
    (* keep decay out of the picture: byte counts stay exact *)
    decay_interval = Time.s 100;
  }

let sample_one t ~key ~now =
  Tiered.tick t ~now;
  Tiered.sample t ~key ~now ~bytes:1_460 ~max_rate:(Rate.gbps 10.0)
    ~dst_mac:(Mac.host 1)

let promotion_demotion_lifecycle () =
  let journal = Journal.create ~capacity:16 () in
  let t =
    Tiered.create ~config:lifecycle_config ~switch:7
      ~flow_timeout:(Time.ms 10) ~journal ()
  in
  let key = key_of 1 in
  (match sample_one t ~key ~now:(Time.us 1) with
  | Some _ -> Alcotest.fail "promoted below threshold (1 sample)"
  | None -> ());
  (match sample_one t ~key ~now:(Time.us 2) with
  | Some _ -> Alcotest.fail "promoted below threshold (2 samples)"
  | None -> ());
  (match sample_one t ~key ~now:(Time.us 3) with
  | None -> Alcotest.fail "third sample (est 4380 B) should promote"
  | Some entry ->
      (* the collector accounts the payload after a [Some] *)
      entry.Flow_table.sampled_bytes <-
        entry.Flow_table.sampled_bytes + 1_460);
  Alcotest.(check int) "one promotion" 1 (Tiered.promotions t);
  Alcotest.(check int) "one exact entry" 1 (Tiered.exact_size t);
  (match sample_one t ~key ~now:(Time.us 4) with
  | None -> Alcotest.fail "promoted flow lost its exact entry"
  | Some entry ->
      entry.Flow_table.sampled_bytes <-
        entry.Flow_table.sampled_bytes + 1_460);
  let before = Count_min.query (Tiered.sketch t) key in
  (* idle past the flow timeout: the next sweep demotes *)
  Tiered.tick t ~now:(Time.ms 20);
  Alcotest.(check int) "one demotion" 1 (Tiered.demotions t);
  Alcotest.(check int) "exact tier drained" 0 (Tiered.exact_size t);
  Alcotest.(check int) "fold-back credits the sampled bytes"
    (before + (2 * 1_460))
    (Count_min.query (Tiered.sketch t) key);
  let events =
    List.filter_map
      (fun (e : Journal.event) ->
        match e.Journal.body with
        | Journal.Flow_promoted { switch; flow; est_bytes } ->
            Some (Printf.sprintf "promoted sw%d %s %dB" switch flow est_bytes)
        | Journal.Flow_demoted { switch; flow; fold_back_bytes; _ } ->
            Some
              (Printf.sprintf "demoted sw%d %s %dB" switch flow
                 fold_back_bytes)
        | _ -> None)
      (Journal.events journal)
  in
  let flow = FK.to_string key in
  Alcotest.(check (list string))
    "journal carries the lifecycle"
    [
      Printf.sprintf "promoted sw7 %s 4380B" flow;
      Printf.sprintf "demoted sw7 %s 2920B" flow;
    ]
    events

let promotion_suppressed_at_cap () =
  let config =
    { lifecycle_config with Tiered.promote_bytes = 1_000; max_exact = 1 }
  in
  let t =
    Tiered.create ~config ~switch:0 ~flow_timeout:(Time.s 1)
      ~journal:Journal.default ()
  in
  (match sample_one t ~key:(key_of 1) ~now:(Time.us 1) with
  | None -> Alcotest.fail "first elephant should promote"
  | Some _ -> ());
  (match sample_one t ~key:(key_of 2) ~now:(Time.us 2) with
  | Some _ -> Alcotest.fail "exact tier is full: promotion must be refused"
  | None -> ());
  Alcotest.(check int) "one suppressed promotion" 1
    (Tiered.suppressed_promotions t);
  Alcotest.(check int) "still one exact entry" 1 (Tiered.exact_size t);
  (* the refused flow keeps counting in the sketch *)
  Alcotest.(check bool) "sketch still tracks it" true
    (Count_min.query (Tiered.sketch t) (key_of 2) >= 1_460)

let sketch_telemetry_registered () =
  let t =
    Tiered.create ~switch:11 ~flow_timeout:(Time.ms 10)
      ~journal:Journal.default ()
  in
  ignore (Tiered.exact_size t);
  let has name =
    List.exists
      (fun (s : Metrics.snapshot) ->
        s.Metrics.subsystem = "sketch" && s.Metrics.name = name
        && s.Metrics.label = "sw11")
      (Metrics.snapshot Metrics.default)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (has name))
    [
      "sketch_occupied"; "exact_entries"; "promote_overshoot_pct"; "promotions";
      "demotions"; "promotions_suppressed";
    ]

(* ---- TE decision equivalence, exact vs tiered ---- *)

(* On the elephant-dominated reference workload every flow crosses the
   promotion threshold almost immediately, so the TE application must
   reach the same reroute decisions whether the collectors keep exact
   or tiered flow state. (The default backend stays [Exact]; this is
   the guarantee that makes [--flow-table tiered] a drop-in.) *)
let reroute_flows ~flow_table =
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
          ~spec:(Testbed.paper_fat_tree ())
          ~scheme:Scheme.planck_te_default ~workload:(Experiment.Stride 8)
          ~size:(5 * 1024 * 1024) ~flow_table ()
      in
      let flows =
        match Journal.of_ndjson (Buffer.contents buf) with
        | Error e -> Alcotest.failf "streamed journal invalid: %s" e
        | Ok events ->
            List.filter_map
              (fun (e : Journal.event) ->
                match e.Journal.body with
                | Journal.Reroute_decision { flow; _ } -> Some flow
                | _ -> None)
              events
      in
      (summary.Experiment.reroutes, List.sort_uniq compare flows))

let tiered_te_equivalence () =
  let exact_reroutes, exact_flows = reroute_flows ~flow_table:Scheme.Exact in
  let tiered_reroutes, tiered_flows =
    reroute_flows ~flow_table:Scheme.tiered_default
  in
  Alcotest.(check bool) "exact run rerouted" true (exact_reroutes > 0);
  Alcotest.(check bool) "tiered run rerouted" true (tiered_reroutes > 0);
  Alcotest.(check (list string)) "same rerouted flows" exact_flows
    tiered_flows

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    case "cms update returns estimate" `Quick
      cms_update_returns_estimate;
    case "cms halve and clear" `Quick cms_halve_and_clear;
    case "cms deterministic under seed" `Quick cms_deterministic;
    case "cms fixed hash vectors" `Quick cms_fixed_vectors;
    qtest cms_never_underestimates_qcheck;
    case "promotion/demotion lifecycle" `Quick
      promotion_demotion_lifecycle;
    case "promotion suppressed at cap" `Quick
      promotion_suppressed_at_cap;
    case "sketch telemetry registered" `Quick
      sketch_telemetry_registered;
    case "TE decisions: tiered = exact" `Quick
      tiered_te_equivalence;
  ]
