(* Shared plumbing for the paper-reproduction experiments: microbench
   testbeds, sender tracing, latency matching, and result printing. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Stats = Planck_util.Stats
module Table = Planck_util.Table
module Engine = Planck_netsim.Engine
module Switch = Planck_netsim.Switch
module Host = Planck_netsim.Host
module Fabric = Planck_topology.Fabric
module Routing = Planck_topology.Routing
module Endpoint = Planck_tcp.Endpoint
module Flow = Planck_tcp.Flow
module Collector = Planck_collector.Collector
module FK = Planck_packet.Flow_key
module P = Planck_packet.Packet
module H = Planck_packet.Headers
module Testbed = Planck.Testbed
module Scheme = Planck.Scheme
module Experiment = Planck.Experiment

type opts = {
  runs : int;  (** repetitions for multi-run experiments *)
  full : bool;  (** paper-scale parameters instead of reduced defaults *)
  seed : int;
  verbose : bool;
}

let default_opts = { runs = 3; full = false; seed = 1; verbose = false }

let rate_10g = Rate.gbps 10.0
let rate_1g = Rate.gbps 1.0

(* The Pronto 3290 (1 Gbps, §5) is a smaller ToR: ~4 MB of shared
   buffer with a stingier dynamic threshold — reproducing its ~6 ms
   monitor-port queueing at 1 Gbps. *)
let pronto_config =
  {
    Switch.default_config with
    Switch.buffer_total = 4 * 1024 * 1024;
    dt_alpha = 0.22;
  }

(* The "minbuffer" firmware configuration of §9.2 / Table 1: the
   monitor port keeps only a handful of MTUs of buffer. *)
let minbuffer config =
  { config with Switch.mirror_buffer_cap = Some (6 * P.mtu) }

(* ---- Microbench testbed (single switch + collector) ---- *)

type micro = {
  tb : Testbed.t;
  collector : Collector.t;
  switch : Switch.t;
}

let micro_testbed ?(hosts = 28) ?(rate = rate_10g)
    ?(config = Switch.default_config) ?(seed = 1) () =
  let tb =
    Testbed.create (Testbed.microbench ~seed ~hosts ~rate ~switch_config:config ())
  in
  let collector =
    Collector.create tb.Testbed.engine ~switch:0 ~routing:tb.Testbed.routing
      ~link_rate:rate ()
  in
  Collector.attach collector;
  { tb; collector; switch = Fabric.switch tb.Testbed.fabric 0 }

let micro_no_mirror ?(hosts = 28) ?(rate = rate_10g)
    ?(config = Switch.default_config) ?(seed = 1) () =
  let tb =
    Testbed.create (Testbed.microbench ~seed ~hosts ~rate ~switch_config:config ())
  in
  (tb, Fabric.switch tb.Testbed.fabric 0)

(* A long-lived saturating flow (sized to outlast any horizon used in
   the microbenchmarks). [params] defaults to a window suited to the
   testbed rate: autotuned stacks keep ~3x BDP, so 1 Gbps hosts hold
   far smaller windows than 10 Gbps ones. *)
let params_for rate =
  if rate < Rate.gbps 5.0 then
    { Flow.default_params with Flow.max_flight = 256 * 1024 }
  else Flow.default_params

let saturating_flow ?params ?(tag = 0) tb ~src ~dst =
  let params =
    match params with
    | Some params -> params
    | None -> params_for (Fabric.link_rate tb.Testbed.fabric)
  in
  Flow.start
    ~src:tb.Testbed.endpoints.(src)
    ~dst:tb.Testbed.endpoints.(dst)
    ~src_port:(10_000 + src + (1_000 * tag))
    ~dst_port:(20_000 + dst)
    ~size:(1 lsl 40) ~params ()

(* ---- Sender tracing ---- *)

(* Records the first transmission time of every (flow, seq) pair on the
   traced hosts — the "tcpdump at the sender" of §5.2 — and the raw
   sequence of sends per flow for ground-truth rate estimation. *)
type sender_trace = {
  first_tx : (FK.t * int, Time.t) Hashtbl.t;
  mutable sends : (Time.t * FK.t * int * int) list; (* t, key, seq32, payload *)
}

let trace_senders tb hosts =
  let trace = { first_tx = Hashtbl.create 65536; sends = [] } in
  List.iter
    (fun h ->
      Host.add_send_trace
        (Fabric.host tb.Testbed.fabric h)
        (fun time packet ->
          match (FK.of_packet packet, packet) with
          | Some key, P.Tcp { seq; _ } when P.tcp_payload_len packet > 0 ->
              let id = (key, seq) in
              if not (Hashtbl.mem trace.first_tx id) then begin
                Hashtbl.replace trace.first_tx id time;
                trace.sends <-
                  (time, key, seq, P.tcp_payload_len packet) :: trace.sends
              end
          | _ -> ()))
    hosts;
  trace

let sends_of_flow trace key =
  List.rev
    (List.filter_map
       (fun (t, k, seq, payload) ->
         if FK.equal k key then Some (t, seq, payload) else None)
       trace.sends)

(* ---- One-way latency recorder (send trace -> receive trace) ---- *)

(* Frames are immutable values and the single-switch testbed delivers
   the very value that was sent (no MAC rewrites), so physical identity
   follows one transmission from send trace to receive trace; a
   retransmission is a new value. *)
module Frame_table = Hashtbl.Make (struct
  type t = P.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type latency_recorder = {
  in_flight : Time.t Frame_table.t; (* frame -> send time *)
  mutable latencies : Time.t list;
}

let record_latencies tb hosts =
  let recorder = { in_flight = Frame_table.create 65536; latencies = [] } in
  List.iter
    (fun h ->
      let host = Fabric.host tb.Testbed.fabric h in
      Host.add_send_trace host (fun time packet ->
          if P.tcp_payload_len packet > 0 then
            Frame_table.replace recorder.in_flight packet time);
      Host.add_recv_trace host (fun time packet ->
          match Frame_table.find_opt recorder.in_flight packet with
          | Some sent ->
              Frame_table.remove recorder.in_flight packet;
              recorder.latencies <- (time - sent) :: recorder.latencies
          | None -> ()))
    hosts;
  recorder

(* ---- Printing ---- *)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n%!" s) fmt

let paper fmt =
  Printf.ksprintf (fun s -> Printf.printf "  [paper] %s\n%!" s) fmt

let ms t = Time.to_float_ms t
let us t = Time.to_float_us t

let cdf_deciles values =
  List.map
    (fun p -> (p, Stats.percentile p values))
    [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9 ]

let all_hosts tb = List.init (Testbed.host_count tb) Fun.id
