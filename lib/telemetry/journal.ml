module Time = Planck_util.Time
module Ring = Planck_util.Ring

type body =
  | Packet_drop of { switch : string; port : int; mirror : bool }
  | Queue_high_water of {
      switch : string;
      occupancy : int;
      capacity : int;
      level : int;
    }
  | Tcp_retransmit of { flow : string; seq : int }
  | Tcp_timeout of { flow : string; rto_ns : int }
  | Tcp_recovery_enter of { flow : string }
  | Congestion_detected of {
      switch : int;
      port : int;
      gbps : float;
      capacity_gbps : float;
      flows : int;
    }
  | Estimate_update of { switch : int; flow : string; gbps : float }
  | Flow_promoted of { switch : int; flow : string; est_bytes : int }
  | Flow_demoted of {
      switch : int;
      flow : string;
      fold_back_bytes : int;
      lifetime_ns : int;
    }
  | Controller_notified of { switch : int; port : int }
  | Reroute_decision of {
      flow : string;
      old_mac : string;
      new_mac : string;
      bottleneck_gbps : float;
      mechanism : string;
    }
  | Reroute_install of { flow : string; mechanism : string }
  | Reroute_effective of { flow : string; new_mac : string; switch : int }
  | Phase_marker of { name : string; detail : string }
  | Custom of { source : string; name : string; args : (string * Json.t) list }

type event = { ts : Time.t; corr : int option; body : body }

(* [Ring] bounds a journal from {!create}, evicting its oldest event;
   [Log] holds a shard journal's whole run, newest first. *)
type store =
  | Ring of event Ring.t
  | Log of { mutable rev : event list; mutable len : int }

type t = {
  mutable on : bool;
  store : store;
  mutable evicted : int;
  corr_base : int;  (* [clear] resets [corr] here *)
  mutable corr : int;
  mutable writer : (string -> unit) option;
}

let create ?(capacity = 65536) ?(enabled = true) () =
  {
    on = enabled;
    store = Ring (Ring.create ~capacity);
    evicted = 0;
    corr_base = 0;
    corr = 0;
    writer = None;
  }

(* The process-wide journal every built-in instrumentation point records
   into. Disabled by default, like Metrics.default. *)
let default = create ~enabled:false ()

let set_enabled t on = t.on <- on
let enabled t = t.on

(* A shard journal buffers the whole run (the merge happens after the
   domains join), unlike the default journal whose writer streams as it
   records, so it grows with what it records and never evicts.
   Correlation ids are made globally unique by basing shard [s > 0] at
   [s lsl 40]; shard 0 keeps base 0 so a 1-shard run mints the exact id
   sequence of the single-domain engine. *)
let shard_journal ~shard =
  let corr_base = shard lsl 40 in
  {
    on = true;
    store = Log { rev = []; len = 0 };
    evicted = 0;
    corr_base;
    corr = corr_base;
    writer = None;
  }

let next_corr t =
  t.corr <- t.corr + 1;
  t.corr

let events t =
  match t.store with Ring r -> Ring.to_list r | Log l -> List.rev l.rev

let length t = match t.store with Ring r -> Ring.length r | Log l -> l.len

let capacity t =
  match t.store with Ring r -> Ring.capacity r | Log _ -> max_int

let evicted t = t.evicted

let clear t =
  (match t.store with
  | Ring r -> Ring.clear r
  | Log l ->
      l.rev <- [];
      l.len <- 0);
  t.evicted <- 0;
  t.corr <- t.corr_base

let set_writer t w = t.writer <- w

(* ---- NDJSON codec ---- *)

let source_of_body = function
  | Packet_drop _ | Queue_high_water _ -> "netsim"
  | Tcp_retransmit _ | Tcp_timeout _ | Tcp_recovery_enter _ -> "tcp"
  | Congestion_detected _ | Estimate_update _ | Reroute_effective _
  | Flow_promoted _ | Flow_demoted _ ->
      "collector"
  | Controller_notified _ | Reroute_decision _ | Reroute_install _ ->
      "controller"
  | Phase_marker _ -> "experiment"
  | Custom { source; _ } -> source

let name_of_body = function
  | Packet_drop _ -> "packet_drop"
  | Queue_high_water _ -> "queue_high_water"
  | Tcp_retransmit _ -> "retransmit"
  | Tcp_timeout _ -> "rto"
  | Tcp_recovery_enter _ -> "recovery_enter"
  | Congestion_detected _ -> "congestion_detected"
  | Estimate_update _ -> "estimate_update"
  | Flow_promoted _ -> "flow_promoted"
  | Flow_demoted _ -> "flow_demoted"
  | Controller_notified _ -> "notified"
  | Reroute_decision _ -> "reroute_decision"
  | Reroute_install _ -> "reroute_install"
  | Reroute_effective _ -> "reroute_effective"
  | Phase_marker _ -> "phase"
  | Custom { name; _ } -> name

let fields_of_body = function
  | Packet_drop { switch; port; mirror } ->
      [
        ("switch", Json.String switch);
        ("port", Json.Int port);
        ("mirror", Json.Bool mirror);
      ]
  | Queue_high_water { switch; occupancy; capacity; level } ->
      [
        ("switch", Json.String switch);
        ("occupancy", Json.Int occupancy);
        ("capacity", Json.Int capacity);
        ("level", Json.Int level);
      ]
  | Tcp_retransmit { flow; seq } ->
      [ ("flow", Json.String flow); ("seq", Json.Int seq) ]
  | Tcp_timeout { flow; rto_ns } ->
      [ ("flow", Json.String flow); ("rto_ns", Json.Int rto_ns) ]
  | Tcp_recovery_enter { flow } -> [ ("flow", Json.String flow) ]
  | Congestion_detected { switch; port; gbps; capacity_gbps; flows } ->
      [
        ("switch", Json.Int switch);
        ("port", Json.Int port);
        ("gbps", Json.Float gbps);
        ("capacity_gbps", Json.Float capacity_gbps);
        ("flows", Json.Int flows);
      ]
  | Estimate_update { switch; flow; gbps } ->
      [
        ("switch", Json.Int switch);
        ("flow", Json.String flow);
        ("gbps", Json.Float gbps);
      ]
  | Flow_promoted { switch; flow; est_bytes } ->
      [
        ("switch", Json.Int switch);
        ("flow", Json.String flow);
        ("est_bytes", Json.Int est_bytes);
      ]
  | Flow_demoted { switch; flow; fold_back_bytes; lifetime_ns } ->
      [
        ("switch", Json.Int switch);
        ("flow", Json.String flow);
        ("fold_back_bytes", Json.Int fold_back_bytes);
        ("lifetime_ns", Json.Int lifetime_ns);
      ]
  | Controller_notified { switch; port } ->
      [ ("switch", Json.Int switch); ("port", Json.Int port) ]
  | Reroute_decision { flow; old_mac; new_mac; bottleneck_gbps; mechanism } ->
      [
        ("flow", Json.String flow);
        ("old_mac", Json.String old_mac);
        ("new_mac", Json.String new_mac);
        ("bottleneck_gbps", Json.Float bottleneck_gbps);
        ("mechanism", Json.String mechanism);
      ]
  | Reroute_install { flow; mechanism } ->
      [ ("flow", Json.String flow); ("mechanism", Json.String mechanism) ]
  | Reroute_effective { flow; new_mac; switch } ->
      [
        ("flow", Json.String flow);
        ("new_mac", Json.String new_mac);
        ("switch", Json.Int switch);
      ]
  | Phase_marker { name; detail } ->
      [ ("name", Json.String name); ("detail", Json.String detail) ]
  | Custom { args; _ } -> args

let event_to_json (ev : event) =
  let corr = match ev.corr with None -> [] | Some c -> [ ("corr", Json.Int c) ] in
  Json.Obj
    (("ts", Json.Int ev.ts)
     :: ("src", Json.String (source_of_body ev.body))
     :: ("ev", Json.String (name_of_body ev.body))
     :: corr
    @ fields_of_body ev.body)

(* Decoding: pull named fields out of the object, with the reserved keys
   stripped before a Custom fallback so unknown events round-trip. *)

let ( let* ) = Result.bind

let field j key conv =
  match Json.member j key with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" key))

let int_f j key = field j key Json.to_int_opt
let float_f j key = field j key Json.to_float_opt
let string_f j key = field j key Json.to_string_opt
let bool_f j key = field j key (function Json.Bool b -> Some b | _ -> None)

let body_of_json j ~src ~ev =
  match ev with
  | "packet_drop" ->
      let* switch = string_f j "switch" in
      let* port = int_f j "port" in
      let* mirror = bool_f j "mirror" in
      Ok (Packet_drop { switch; port; mirror })
  | "queue_high_water" ->
      let* switch = string_f j "switch" in
      let* occupancy = int_f j "occupancy" in
      let* capacity = int_f j "capacity" in
      let* level = int_f j "level" in
      Ok (Queue_high_water { switch; occupancy; capacity; level })
  | "retransmit" ->
      let* flow = string_f j "flow" in
      let* seq = int_f j "seq" in
      Ok (Tcp_retransmit { flow; seq })
  | "rto" ->
      let* flow = string_f j "flow" in
      let* rto_ns = int_f j "rto_ns" in
      Ok (Tcp_timeout { flow; rto_ns })
  | "recovery_enter" ->
      let* flow = string_f j "flow" in
      Ok (Tcp_recovery_enter { flow })
  | "congestion_detected" ->
      let* switch = int_f j "switch" in
      let* port = int_f j "port" in
      let* gbps = float_f j "gbps" in
      let* capacity_gbps = float_f j "capacity_gbps" in
      let* flows = int_f j "flows" in
      Ok (Congestion_detected { switch; port; gbps; capacity_gbps; flows })
  | "estimate_update" ->
      let* switch = int_f j "switch" in
      let* flow = string_f j "flow" in
      let* gbps = float_f j "gbps" in
      Ok (Estimate_update { switch; flow; gbps })
  | "flow_promoted" ->
      let* switch = int_f j "switch" in
      let* flow = string_f j "flow" in
      let* est_bytes = int_f j "est_bytes" in
      Ok (Flow_promoted { switch; flow; est_bytes })
  | "flow_demoted" ->
      let* switch = int_f j "switch" in
      let* flow = string_f j "flow" in
      let* fold_back_bytes = int_f j "fold_back_bytes" in
      let* lifetime_ns = int_f j "lifetime_ns" in
      Ok (Flow_demoted { switch; flow; fold_back_bytes; lifetime_ns })
  | "notified" ->
      let* switch = int_f j "switch" in
      let* port = int_f j "port" in
      Ok (Controller_notified { switch; port })
  | "reroute_decision" ->
      let* flow = string_f j "flow" in
      let* old_mac = string_f j "old_mac" in
      let* new_mac = string_f j "new_mac" in
      let* bottleneck_gbps = float_f j "bottleneck_gbps" in
      let* mechanism = string_f j "mechanism" in
      Ok (Reroute_decision { flow; old_mac; new_mac; bottleneck_gbps; mechanism })
  | "reroute_install" ->
      let* flow = string_f j "flow" in
      let* mechanism = string_f j "mechanism" in
      Ok (Reroute_install { flow; mechanism })
  | "reroute_effective" ->
      let* flow = string_f j "flow" in
      let* new_mac = string_f j "new_mac" in
      let* switch = int_f j "switch" in
      Ok (Reroute_effective { flow; new_mac; switch })
  | "phase" ->
      let* name = string_f j "name" in
      let* detail = string_f j "detail" in
      Ok (Phase_marker { name; detail })
  | name ->
      let args =
        match j with
        | Json.Obj kvs ->
            List.filter
              (fun (k, _) ->
                k <> "ts" && k <> "src" && k <> "ev" && k <> "corr")
              kvs
        | _ -> []
      in
      Ok (Custom { source = src; name; args })

let event_of_json j =
  let* ts = int_f j "ts" in
  let* src = string_f j "src" in
  let* ev = string_f j "ev" in
  let corr =
    match Json.member j "corr" with
    | Some v -> Json.to_int_opt v
    | None -> None
  in
  let* body = body_of_json j ~src ~ev in
  Ok { ts; corr; body }

let to_ndjson t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (Json.to_string (event_to_json ev));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let of_ndjson s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (i + 1) acc rest
        else
          let parsed =
            let* j = Json.of_string line in
            event_of_json j
          in
          (match parsed with
          | Ok ev -> go (i + 1) (ev :: acc) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" i e))
  in
  go 1 [] lines

(* The hot path: one branch when disabled. Callers that build event
   bodies from live state (formatting flow keys, reading buffer
   occupancy) must guard that work with [enabled] themselves. *)
let record t ~ts ?corr body =
  if t.on then begin
    let ev = { ts; corr; body } in
    (match t.store with
    | Ring r ->
        if Ring.is_full r then begin
          ignore (Ring.pop r);
          t.evicted <- t.evicted + 1
        end;
        ignore (Ring.push r ev)
    | Log l ->
        l.rev <- ev :: l.rev;
        l.len <- l.len + 1);
    match t.writer with
    | None -> ()
    | Some w -> w (Json.to_string (event_to_json ev))
  end

(* Deterministic post-run merge: stable sort on (sim-time, shard id)
   keeps each shard's own record order for ties, so the interleaving is
   a pure function of the simulation — and with one shard it is the
   identity, which is what makes the 1-shard NDJSON byte-identical to
   the single-domain engine's. Re-recording through [record] streams
   every merged event through [dst]'s writer in that order. *)
let merge_into dst shards =
  List.concat_map
    (fun (shard, j) -> List.map (fun ev -> (shard, ev)) (events j))
    shards
  |> List.stable_sort (fun (sa, a) (sb, b) ->
         match Int.compare a.ts b.ts with
         | 0 -> Int.compare sa sb
         | c -> c)
  |> List.iter (fun (_, ev) -> record dst ~ts:ev.ts ?corr:ev.corr ev.body)
