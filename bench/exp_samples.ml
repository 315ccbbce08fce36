(* Figures 5, 6 and 7 (§5.3): the structure of the sampled stream under
   oversubscription — burst lengths, inter-arrival lengths, and how the
   collector-observed gaps compare with the senders' own burstiness. *)

open Exp_common

(* Per-flow burst/inter-arrival decomposition of the collector's sample
   stream, in MTU units. A "burst" is a maximal run of consecutive
   samples of one flow; the inter-arrival length of a flow is the
   volume of other traffic between two of its bursts. *)
let analyze_stream samples flows_of_interest =
  let bursts = Hashtbl.create 16 in
  let inter = Hashtbl.create 16 in
  let current_key = ref None in
  let current_burst = ref 0 in
  let since_last = Hashtbl.create 16 in
  let mtu_of bytes = float_of_int bytes /. float_of_int P.mtu in
  let flush_burst () =
    match !current_key with
    | Some key ->
        Hashtbl.replace bursts key
          (mtu_of !current_burst
          :: Option.value ~default:[] (Hashtbl.find_opt bursts key))
    | None -> ()
  in
  List.iter
    (fun (key, wire_size) ->
      (match !current_key with
      | Some k when FK.equal k key -> current_burst := !current_burst + wire_size
      | _ ->
          flush_burst ();
          current_key := Some key;
          current_burst := wire_size);
      (* Account this packet as "foreign" for every other flow. *)
      List.iter
        (fun f ->
          if not (FK.equal f key) then
            Hashtbl.replace since_last f
              (wire_size
              + Option.value ~default:0 (Hashtbl.find_opt since_last f))
          else begin
            (match Hashtbl.find_opt since_last f with
            | Some gap when gap > 0 ->
                Hashtbl.replace inter f
                  (mtu_of gap
                  :: Option.value ~default:[] (Hashtbl.find_opt inter f))
            | _ -> ());
            Hashtbl.replace since_last f 0
          end)
        flows_of_interest)
    samples;
  flush_burst ();
  let all table =
    Hashtbl.fold (fun _ v acc -> v @ acc) table []
  in
  (all bursts, all inter)

let sampled_run ~flows ~seed ~duration =
  let hosts = 28 in
  let m = micro_testbed ~hosts ~seed () in
  let trace = trace_senders m.tb (List.init flows (fun i -> i)) in
  let stream = ref [] in
  Collector.set_tap m.collector (fun ~rx ~arrival packet ->
      let s = Collector.sample m.collector ~rx ~arrival packet in
      match s.Collector.key with
      | Some key when s.Collector.payload > 0 ->
          stream := (key, P.wire_size s.Collector.packet) :: !stream
      | _ -> ());
  let flow_handles =
    List.init flows (fun i -> saturating_flow m.tb ~src:i ~dst:(14 + i))
  in
  (* Warm up into steady state before collecting. *)
  Engine.run ~until:(Time.ms 5) m.tb.Testbed.engine;
  stream := [];
  trace.sends <- [];
  Engine.run ~until:(Time.ms 5 + duration) m.tb.Testbed.engine;
  let keys = List.map Flow.key flow_handles in
  (List.rev !stream, keys, trace)

let sender_gap_mtus trace keys rate =
  (* MTUs that could have been transmitted during each sender-side gap
     between consecutive departures of the same flow. *)
  let mtu_time = Rate.tx_time rate ~bytes_:P.mtu in
  List.concat_map
    (fun key ->
      let sends = sends_of_flow trace key in
      let rec gaps = function
        | (t1, _, _) :: ((t2, _, _) :: _ as rest) ->
            (float_of_int (t2 - t1) /. float_of_int mtu_time) :: gaps rest
        | _ -> []
      in
      gaps sends)
    keys

let print_cdf label values =
  let row (p, v) = [ Printf.sprintf "p%g" p; Printf.sprintf "%.2f" v ] in
  Printf.printf "  %s:\n" label;
  Table.print ~header:[ "pctile"; "MTUs" ] (List.map row (cdf_deciles values))

let run opts =
  section "Figure 5: CDF of sample burst lengths (13 flows)";
  let duration = if opts.full then Time.ms 60 else Time.ms 15 in
  let stream, keys, trace = sampled_run ~flows:13 ~seed:opts.seed ~duration in
  let bursts, inter = analyze_stream stream keys in
  print_cdf "burst length" bursts;
  let le_one =
    100.0
    *. float_of_int (List.length (List.filter (fun b -> b <= 1.01) bursts))
    /. float_of_int (max 1 (List.length bursts))
  in
  note "%.1f%% of bursts are <= 1 MTU (%d bursts observed)" le_one
    (List.length bursts);
  paper "over 96%% of bursts <= 1 MTU: round-robin samples one packet";
  paper "per flow at a time under saturation.";

  section "Figure 6: inter-arrival length vs number of flows";
  let rows =
    List.map
      (fun flows ->
        let stream, keys, _ =
          sampled_run ~flows ~seed:opts.seed
            ~duration:(if opts.full then Time.ms 30 else Time.ms 8)
        in
        let _, inter = analyze_stream stream keys in
        [
          string_of_int flows;
          Printf.sprintf "%.2f" (Stats.mean inter);
          string_of_int (flows - 1);
        ])
      [ 2; 4; 6; 8; 10; 12; 14 ]
  in
  Table.print ~header:[ "flows"; "mean inter-arrival (MTUs)"; "ideal n-1" ] rows;
  paper "inter-arrival grows linearly ~= NUMFLOWS-1 beyond 4 flows.";

  section "Figure 7: CDF of inter-arrival lengths (collector vs sender)";
  print_cdf "observed at collector" inter;
  let sender_gaps = sender_gap_mtus trace keys rate_10g in
  print_cdf "sender gap capacity" (List.filter (fun g -> g > 0.01) sender_gaps);
  let frac_le_13 =
    100.0
    *. float_of_int (List.length (List.filter (fun v -> v <= 13.0) inter))
    /. float_of_int (max 1 (List.length inter))
  in
  note "%.1f%% of inter-arrivals <= 13 MTUs" frac_le_13;
  paper "~85%% of inter-arrivals <= 13 MTUs with a long tail that";
  paper "matches the senders' own transmission gaps (TCP burstiness,";
  paper "not a Planck artifact)."
