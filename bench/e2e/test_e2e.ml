(* Unit tests of the benchmark's own rules, and a smoke run of all four
   workloads at reduced scale. Runs from _build/default/bench/e2e, next
   to planck_e2e.exe and (two levels up) BENCHMARK.json. *)

open E2e_bench
module Json = Planck_telemetry.Json

let test_percentile_rule () =
  let check msg expected got = Alcotest.(check bool) msg expected got in
  check "p50 needs 20 samples" false (Report.supported ~p:50. 19);
  check "p50 with 20 samples" true (Report.supported ~p:50. 20);
  check "p99 needs 1000 samples" false (Report.supported ~p:99. 999);
  check "p99 with 1000 samples" true (Report.supported ~p:99. 1000);
  let xs n = List.init n float_of_int in
  Alcotest.(check (option (float 1e-9))) "unsupported is absent" None
    (Report.percentile ~p:50. (xs 19));
  Alcotest.(check (option (float 1e-9))) "median of 0..19" (Some 9.5)
    (Report.percentile ~p:50. (xs 20))

let test_layer_of_file () =
  List.iter
    (fun (file, layer) ->
      Alcotest.(check string) file layer (Layer.of_file file))
    [
      ("lib/netsim/switch.ml", "netsim.switch");
      ("lib/netsim/wiring.ml", "netsim.other");
      ("lib/util/heap.ml", "util.heap");
      ("lib/util/timer_wheel.ml", "util.timer_wheel");
      ("lib/util/prng.ml", "util.other");
      ("lib/collector/flow_table.ml", "collector");
      ("lib/telemetry/journal.ml", "telemetry");
      ("lib/baselines/poller.ml", "other");
      ("bench/e2e/sampler.ml", "other");
      ("hashtbl.ml", "other");
    ];
  Array.iter
    (fun l ->
      Alcotest.(check string) "every layer indexes itself" l
        Layer.all.(Layer.index l))
    Layer.all

(* The pitfall behind engine.alloc_words_per_event: Gc.minor_words
   reads the calling domain only, Gc.quick_stat also counts domains
   that have been joined. *)
let test_quick_stat_counts_joined_domain () =
  let words = 3_000_000 in
  let before = Gc.quick_stat () and minor_before = Gc.minor_words () in
  let d =
    Domain.spawn (fun () ->
        List.length (Sys.opaque_identity (List.init (words / 3) Fun.id)))
  in
  ignore (Domain.join d);
  let after = Gc.quick_stat () and minor_after = Gc.minor_words () in
  let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  let seen = allocated after -. allocated before in
  if seen < 0.9 *. float_of_int words then
    Alcotest.failf "quick_stat saw %.0f of the domain's %d words" seen words;
  let own = minor_after -. minor_before in
  if own > 0.1 *. float_of_int words then
    Alcotest.failf "minor_words saw %.0f words on the calling domain" own

let read_file path = In_channel.with_open_bin path In_channel.input_all

let json_file path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s" path e

let field j key =
  match Json.member j key with Some v -> v | None -> Alcotest.failf "no %S" key

let string_field j key = Option.get (Json.to_string_opt (field j key))

let entries j key = Option.get (Json.to_list_opt (field j key))
let names j key = List.map (fun m -> string_field m "name") (entries j key)

(* Every workload at reduced scale, traced, through the real
   executable: the smoke test of the benchmark and of its JSON. *)
let test_smoke_json () =
  let out = "smoke.json" and stdout_file = "smoke.out" in
  let cmd =
    Printf.sprintf "./planck_e2e.exe --scale smoke --trace 1 --json %s > %s"
      out stdout_file
  in
  Alcotest.(check int) "smoke run passes its correctness checks" 0 (Sys.command cmd);
  let benchmark = json_file "../../BENCHMARK.json" in
  let declared = entries benchmark "end_to_end" @ entries benchmark "per_layer" in
  let workloads = names benchmark "workloads" in
  Alcotest.(check (list string)) "BENCHMARK.json lists the workloads"
    (List.map Workload.name Workload.all) workloads;
  let report = json_file out in
  List.iter
    (fun w ->
      let metrics = field (field (field report "workloads") w) "metrics" in
      List.iter
        (fun d ->
          let name = string_field d "name" in
          match Json.member metrics name with
          | Some m ->
              Alcotest.(check string) (w ^ " " ^ name ^ " unit") (string_field d "unit")
                (string_field m "unit")
          | None -> Alcotest.failf "%s: metric %s missing from --json" w name)
        declared)
    workloads;
  let last =
    List.hd (List.rev (String.split_on_char '\n' (String.trim (read_file stdout_file))))
  in
  match Json.of_string last with
  | Error e -> Alcotest.failf "last stdout line does not parse: %s" e
  | Ok line ->
      List.iter
        (fun k -> ignore (field line k))
        [ "correct"; "attempted"; "failed"; "metrics" ]

let () =
  Alcotest.run "planck-e2e"
    [
      ( "rules",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "file to layer" `Quick test_layer_of_file;
          Alcotest.test_case "quick_stat counts joined domains" `Quick
            test_quick_stat_counts_joined_domain;
        ] );
      ("smoke", [ Alcotest.test_case "all workloads, JSON" `Quick test_smoke_json ]);
    ]
