module Time = Planck_util.Time

type loop = {
  corr : int;
  flow : string option;
  detect : Time.t;
  notify : Time.t option;
  decide : Time.t option;
  install : Time.t option;
  effective : Time.t option;
}

let complete l =
  l.flow <> None && l.notify <> None && l.decide <> None && l.install <> None
  && l.effective <> None

let total l =
  match l.effective with Some e when complete l -> Some (e - l.detect) | _ -> None

(* Rebuilding loops is a fold over the journal keyed on (corr, flow):
   detect/notify belong to the corr as a whole; decide/install/effective
   are per rerouted flow. Each stage keeps its earliest stamp so a
   duplicate event (e.g. a retransmitted sample matching the effective
   watch twice) cannot shrink a leg. *)
let loops events =
  let corrs = Hashtbl.create 16 in (* corr -> detect, notify *)
  let by_flow = Hashtbl.create 16 in (* corr * flow -> decide/install/effective *)
  let order = ref [] in
  let first old ts = match old with None -> Some ts | Some t -> Some (min t ts) in
  let touch_corr corr f =
    let detect, notify =
      match Hashtbl.find_opt corrs corr with
      | Some dn -> dn
      | None ->
          order := `Corr corr :: !order;
          (None, None)
    in
    Hashtbl.replace corrs corr (f (detect, notify))
  in
  let touch_flow corr flow f =
    let key = (corr, flow) in
    let entry =
      match Hashtbl.find_opt by_flow key with
      | Some e -> e
      | None ->
          order := `Flow key :: !order;
          (None, None, None)
    in
    Hashtbl.replace by_flow key (f entry)
  in
  List.iter
    (fun (ev : Journal.event) ->
      match (ev.Journal.corr, ev.Journal.body) with
      | Some corr, Journal.Congestion_detected _ ->
          touch_corr corr (fun (d, n) -> (first d ev.ts, n))
      | Some corr, Journal.Controller_notified _ ->
          touch_corr corr (fun (d, n) -> (d, first n ev.ts))
      | Some corr, Journal.Reroute_decision { flow; _ } ->
          touch_flow corr flow (fun (dc, i, e) -> (first dc ev.ts, i, e))
      | Some corr, Journal.Reroute_install { flow; _ } ->
          touch_flow corr flow (fun (dc, i, e) -> (dc, first i ev.ts, e))
      | Some corr, Journal.Reroute_effective { flow; _ } ->
          touch_flow corr flow (fun (dc, i, e) -> (dc, i, first e ev.ts))
      | _ -> ())
    events;
  (* One loop per (corr, flow); corrs that never decided still show up
     (flow = None) so inspect can report loops that went nowhere. *)
  let flows_of corr =
    Hashtbl.fold
      (fun (c, flow) _ acc -> if c = corr then flow :: acc else acc)
      by_flow []
  in
  let ls =
    List.filter_map
      (function
        | `Flow (corr, flow) ->
            let detect, notify =
              Option.value (Hashtbl.find_opt corrs corr) ~default:(None, None)
            in
            let decide, install, effective =
              Option.value
                (Hashtbl.find_opt by_flow (corr, flow))
                ~default:(None, None, None)
            in
            Option.map
              (fun detect ->
                { corr; flow = Some flow; detect; notify; decide; install;
                  effective })
              detect
        | `Corr corr -> (
            if flows_of corr <> [] then None
            else
              match Hashtbl.find_opt corrs corr with
              | Some (Some detect, notify) ->
                  Some
                    { corr; flow = None; detect; notify; decide = None;
                      install = None; effective = None }
              | _ -> None))
      (List.rev !order)
  in
  List.stable_sort
    (fun a b ->
      match Int.compare a.detect b.detect with
      | 0 -> Int.compare a.corr b.corr
      | c -> c)
    ls

let stage_durations ls =
  let complete_loops = List.filter complete ls in
  let leg f = List.filter_map f complete_loops in
  let ms a b =
    match (a, b) with
    | Some a, Some b -> Some (Time.to_float_ms (b - a))
    | _ -> None
  in
  [
    ("detect->notify", leg (fun l -> ms (Some l.detect) l.notify));
    ("notify->decide", leg (fun l -> ms l.notify l.decide));
    ("decide->install", leg (fun l -> ms l.decide l.install));
    ("install->effective", leg (fun l -> ms l.install l.effective));
    ("detect->effective", leg (fun l -> ms (Some l.detect) l.effective));
  ]

let by_count_desc counts =
  List.sort
    (fun (ka, a) (kb, b) ->
      match Int.compare b a with 0 -> String.compare ka kb | c -> c)
    counts

let desc_counts tbl =
  by_count_desc (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let flap_counts events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Journal.event) ->
      match ev.Journal.body with
      | Journal.Reroute_decision { flow; _ } ->
          Hashtbl.replace tbl flow
            (1 + Option.value (Hashtbl.find_opt tbl flow) ~default:0)
      | _ -> ())
    events;
  desc_counts tbl

let count_events events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Journal.event) ->
      let name = Journal.name_of_body ev.Journal.body in
      Hashtbl.replace tbl name
        (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0))
    events;
  desc_counts tbl

let estimate_errors ~names ~rows =
  let index name =
    let rec go i = function
      | [] -> None
      | n :: _ when n = name -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 names
  in
  let flows =
    List.filter_map
      (fun n ->
        if String.length n > 5 && String.sub n 0 5 = "true:" then
          Some (String.sub n 5 (String.length n - 5))
        else None)
      names
  in
  List.filter_map
    (fun flow ->
      match (index ("true:" ^ flow), index ("est:" ^ flow)) with
      | Some ti, Some ei ->
          let truth, est =
            List.fold_left
              (fun (truth, est) (_, row) ->
                if ti < Array.length row && ei < Array.length row then
                  let tv = row.(ti) and ev = row.(ei) in
                  if tv > 0.05 && Float.is_finite ev then
                    (tv :: truth, ev :: est)
                  else (truth, est)
                else (truth, est))
              ([], []) rows
          in
          if truth = [] then None
          else
            Some (flow, Planck_util.Stats.mean_relative_error ~truth ~estimate:est)
      | _ -> None)
    flows

(* ---- Chrome trace_event view ---- *)

type chrome_record = {
  ts : Time.t;
  cat : string;
  name : string;
  ph : string;
  extra : (string * Json.t) list;
}

(* The latest stamp a loop recorded, detection included. *)
let last_stage l =
  List.fold_left
    (fun acc -> function Some ts -> max acc ts | None -> acc)
    l.detect
    [ l.notify; l.decide; l.install; l.effective ]

let chrome_trace events =
  (* One control_loop span per correlation id. [loops] orders by
     (detect, corr) and every loop of a corr shares its detect stamp, so
     a corr's loops are adjacent. *)
  let spans =
    List.fold_left
      (fun acc l ->
        match acc with
        | (corr, detect, last) :: rest when corr = l.corr ->
            (corr, detect, max last (last_stage l)) :: rest
        | _ -> (l.corr, l.detect, last_stage l) :: acc)
      [] (loops events)
    |> List.rev
  in
  (* Async b/e events keyed by corr, so overlapping loops render side by
     side instead of nesting. They sit on the controller's track, where
     each loop is decided. *)
  let span ph ts corr =
    {
      ts;
      cat = "controller";
      name = "control_loop";
      ph;
      extra =
        [
          ("id", Json.Int corr); ("args", Json.Obj [ ("corr", Json.Int corr) ]);
        ];
    }
  in
  let begins = List.map (fun (corr, detect, _) -> span "b" detect corr) spans in
  let ends = List.map (fun (corr, _, last) -> span "e" last corr) spans in
  (* Instants reuse the journal's own vocabulary: [ev] names the event,
     its NDJSON fields (corr included) are the args. Scope "g" renders
     as a full vertical line in the viewer. *)
  let instants =
    List.filter_map
      (fun (ev : Journal.event) ->
        let keep =
          match ev.Journal.body with
          | Journal.Phase_marker _ -> true
          | _ -> Option.is_some ev.Journal.corr
        in
        if not keep then None
        else
          let args =
            match Journal.event_to_json ev with
            | Json.Obj kvs ->
                List.filter
                  (fun (k, _) -> k <> "ts" && k <> "src" && k <> "ev")
                  kvs
            | _ -> []
          in
          Some
            {
              ts = ev.Journal.ts;
              cat = Journal.source_of_body ev.Journal.body;
              name = Journal.name_of_body ev.Journal.body;
              ph = "i";
              extra = [ ("s", Json.String "g"); ("args", Json.Obj args) ];
            })
      events
  in
  (* Stable sort: at equal stamps a loop opens before, and closes after,
     the instants it contains. *)
  let records =
    List.stable_sort
      (fun a b -> Int.compare a.ts b.ts)
      (begins @ instants @ ends)
  in
  (* Each source renders as its own Perfetto process: pids by first
     appearance, named by M-phase process_name metadata. *)
  let cats =
    List.fold_left
      (fun cats r -> if List.mem r.cat cats then cats else r.cat :: cats)
      [] records
    |> List.rev
  in
  let pids = List.mapi (fun i cat -> (cat, i + 1)) cats in
  let metadata =
    List.map
      (fun (cat, pid) ->
        Json.Obj
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("args", Json.Obj [ ("name", Json.String cat) ]);
          ])
      pids
  in
  (* trace_event timestamps are microseconds as doubles; integer
     nanoseconds up to ~104 days stay exact after /1000 in a double, so
     ts round-trips through the JSON. *)
  let json_of_record r =
    Json.Obj
      ([
         ("name", Json.String r.name);
         ("cat", Json.String r.cat);
         ("ph", Json.String r.ph);
         ("ts", Json.Float (float_of_int r.ts /. 1000.0));
         ("pid", Json.Int (List.assoc r.cat pids));
         ("tid", Json.Int 0);
       ]
      @ r.extra)
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (metadata @ List.map json_of_record records));
         ("displayTimeUnit", Json.String "ns");
       ])

(* ---- CPU samples (run/capture --profile) ---- *)

let cpu_samples_of_metrics_json doc =
  match Option.bind (Json.member doc "metrics") Json.to_list_opt with
  | None -> Error "not a metrics snapshot: expected {\"metrics\": [...]}"
  | Some entries ->
      let str e key = Option.bind (Json.member e key) Json.to_string_opt in
      Ok
        (List.filter_map
           (fun e ->
             match (str e "subsystem", str e "name", str e "label") with
             | Some "profile", Some "cpu_samples", Some layer ->
                 Option.map
                   (fun n -> (layer, n))
                   (Option.bind (Json.member e "value") Json.to_int_opt)
             | _ -> None)
           entries)

let render_cpu_samples samples =
  let samples = List.filter (fun (_, n) -> n > 0) samples in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 samples in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%-18s %8s %6s\n" "layer" "samples" "share";
  List.iter
    (fun (layer, n) ->
      Printf.bprintf buf "%-18s %8d %5.1f%%\n" layer n
        (100. *. float_of_int n /. float_of_int total))
    (by_count_desc samples);
  Printf.bprintf buf "%-18s %8d\n" "total" total;
  if total = 0 then
    Buffer.add_string buf "  (no CPU samples recorded; run with --profile)\n";
  Buffer.contents buf
