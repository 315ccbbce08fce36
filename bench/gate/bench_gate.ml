(* Tolerance-band comparison of bench micro rows against a committed
   BENCH_N.json, plus the cross-file trend table. Pure data plumbing —
   its own library so tests can exercise the comparator without
   linking the bench harness. *)

module Json = Planck_telemetry.Json

type row = { id : string; name : string; ns_per_op : float option }

let slug s =
  let buf = Buffer.create (String.length s) in
  let pending_dash = ref false in
  String.iter
    (fun c ->
      let c = Char.lowercase_ascii c in
      match c with
      | 'a' .. 'z' | '0' .. '9' ->
          if !pending_dash && Buffer.length buf > 0 then
            Buffer.add_char buf '-';
          pending_dash := false;
          Buffer.add_char buf c
      | _ -> pending_dash := true)
    s;
  Buffer.contents buf

(* ---- parsing ---- *)

let row_of_json e =
  match Option.bind (Json.member e "name") Json.to_string_opt with
  | None -> Error "micro row without a \"name\" member"
  | Some name ->
      let id =
        match Option.bind (Json.member e "id") Json.to_string_opt with
        | Some id -> id
        | None -> slug name
      in
      let ns_per_op =
        Option.bind (Json.member e "ns_per_op") Json.to_float_opt
      in
      Ok { id; name; ns_per_op }

let rows_of_json doc =
  let entries =
    match Json.member doc "micro" with
    | Some m -> Json.to_list_opt m
    | None -> Json.to_list_opt doc
  in
  match entries with
  | None ->
      Error "expected a bench document with a \"micro\" member or a bare list"
  | Some entries ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest -> (
            match row_of_json e with
            | Ok r -> go (r :: acc) rest
            | Error _ as e -> e)
      in
      go [] entries

let rows_to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("id", Json.String r.id);
             ("name", Json.String r.name);
             ( "ns_per_op",
               match r.ns_per_op with
               | Some ns -> Json.Float ns
               | None -> Json.Null );
           ])
       rows)

(* ---- comparison ---- *)

type status =
  | Improved of float
  | In_band of float
  | Regressed of float
  | New_row
  | Removed_row
  | Missing_estimate
  | No_baseline_estimate

type comparison = {
  cmp_id : string;
  cmp_name : string;
  baseline_ns : float option;
  current_ns : float option;
  tolerance : float;
  status : status;
}

let compare_rows ?(tolerance = 0.15) ?(noise_floor_ns = 5.0) ?(overrides = [])
    ~baseline ~current () =
  let tol id =
    match List.assoc_opt id overrides with Some t -> t | None -> tolerance
  in
  (* Primary join is the stable id; fall back to the display name so a
     current run with curated ids still checks against baselines
     recorded before ids existed (whose ids are slugs of the names). *)
  let find rows r0 =
    match List.find_opt (fun r -> String.equal r.id r0.id) rows with
    | Some _ as hit -> hit
    | None -> List.find_opt (fun r -> String.equal r.name r0.name) rows
  in
  let of_baseline b =
    let tolerance = tol b.id in
    let cur = find current b in
    let status =
      match (b.ns_per_op, cur) with
      | _, None -> Removed_row
      | None, Some _ -> No_baseline_estimate
      | Some _, Some { ns_per_op = None; _ } -> Missing_estimate
      | Some base, Some { ns_per_op = Some now; _ } ->
          (* The band is multiplicative plus a small absolute floor:
             sub-50ns rows sit at clock granularity, where a few ns of
             scheduler jitter exceeds any sane percentage. *)
          let delta = (now -. base) /. base in
          if now > (base *. (1. +. tolerance)) +. noise_floor_ns then
            Regressed delta
          else if now < (base *. (1. -. tolerance)) -. noise_floor_ns then
            Improved delta
          else In_band delta
    in
    {
      cmp_id = b.id;
      cmp_name = b.name;
      baseline_ns = b.ns_per_op;
      current_ns = Option.bind cur (fun r -> r.ns_per_op);
      tolerance;
      status;
    }
  in
  let news =
    List.filter_map
      (fun c ->
        if Option.is_some (find baseline c) then None
        else
          Some
            {
              cmp_id = c.id;
              cmp_name = c.name;
              baseline_ns = None;
              current_ns = c.ns_per_op;
              tolerance = tol c.id;
              status = New_row;
            })
      current
  in
  List.map of_baseline baseline @ news

let fails = function
  | Regressed _ | Removed_row | Missing_estimate -> true
  | Improved _ | In_band _ | New_row | No_baseline_estimate -> false

let passes comparisons =
  not (List.exists (fun c -> fails c.status) comparisons)

let ns_cell = function Some ns -> Printf.sprintf "%.1f" ns | None -> "-"

let render_check comparisons =
  let buf = Buffer.create 1024 in
  let line c =
    let verdict, detail =
      match c.status with
      | Improved d -> ("OK  ", Printf.sprintf "improved %+.1f%%" (100. *. d))
      | In_band d -> ("OK  ", Printf.sprintf "in band %+.1f%%" (100. *. d))
      | Regressed d ->
          ( "FAIL",
            Printf.sprintf "regressed %+.1f%% (band +/-%.0f%%)" (100. *. d)
              (100. *. c.tolerance) )
      | New_row -> ("OK  ", "new row (no baseline)")
      | Removed_row -> ("FAIL", "row missing from this run")
      | Missing_estimate -> ("FAIL", "no estimate this run (baseline had one)")
      | No_baseline_estimate -> ("OK  ", "baseline had no estimate")
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s %-42s %10s -> %10s ns/op  %s\n" verdict c.cmp_id
         (ns_cell c.baseline_ns) (ns_cell c.current_ns) detail)
  in
  List.iter line comparisons;
  let failed = List.filter (fun c -> fails c.status) comparisons in
  Buffer.add_string buf
    (if failed = [] then
       Printf.sprintf "bench gate: PASS (%d rows)\n" (List.length comparisons)
     else
       Printf.sprintf "bench gate: FAIL (%d of %d rows: %s)\n"
         (List.length failed) (List.length comparisons)
         (String.concat ", " (List.map (fun c -> c.cmp_id) failed)));
  Buffer.contents buf

let parse_override s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "expected 'row-id=fraction', got %S" s)
  | Some i -> (
      let id = String.sub s 0 i in
      let frac = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt frac with
      | Some f when f >= 0.0 && id <> "" -> Ok (id, f)
      | _ ->
          Error
            (Printf.sprintf
               "expected 'row-id=fraction' with fraction >= 0, got %S" s))

(* ---- committed trajectory ---- *)

let bench_number file =
  (* BENCH_<n>.json *)
  let prefix = "BENCH_" and suffix = ".json" in
  let lp = String.length prefix and ls = String.length suffix in
  let l = String.length file in
  if
    l > lp + ls
    && String.sub file 0 lp = prefix
    && String.sub file (l - ls) ls = suffix
  then int_of_string_opt (String.sub file lp (l - lp - ls))
  else None

let bench_files ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             match bench_number f with
             | Some n -> Some (n, Filename.concat dir f)
             | None -> None)
      |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      |> List.map snd

let latest_bench ~dir =
  match List.rev (bench_files ~dir) with [] -> None | p :: _ -> Some p

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let load_rows ~path =
  match read_file path with
  | Error e -> Error e
  | Ok contents -> (
      match Json.of_string contents with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok doc -> (
          match rows_of_json doc with
          | Error e -> Error (path ^ ": " ^ e)
          | Ok rows -> Ok rows))

let trend ~dir =
  match bench_files ~dir with
  | [] -> Error (Printf.sprintf "no BENCH_*.json under %s" dir)
  | files -> (
      let rec load acc = function
        | [] -> Ok (List.rev acc)
        | path :: rest -> (
            match load_rows ~path with
            | Error e -> Error e
            | Ok rows ->
                load ((Filename.remove_extension (Filename.basename path),
                       rows)
                      :: acc)
                  rest)
      in
      match load [] files with
      | Error e -> Error e
      | Ok columns ->
          (* Union of rows in first-appearance order, folded across the
             id scheme change: a row whose display name already appeared
             under an earlier id (pre-id baselines key on name slugs)
             continues that series instead of starting a new one. *)
          let seen = Hashtbl.create 64 in
          let name_to_id = Hashtbl.create 64 in
          let canonical r =
            if Hashtbl.mem seen r.id then r.id
            else
              match Hashtbl.find_opt name_to_id r.name with
              | Some id -> id
              | None -> r.id
          in
          let ids = ref [] in
          List.iter
            (fun (_, rows) ->
              List.iter
                (fun r ->
                  let id = canonical r in
                  if not (Hashtbl.mem seen id) then begin
                    Hashtbl.replace seen id ();
                    ids := id :: !ids
                  end;
                  if not (Hashtbl.mem name_to_id r.name) then
                    Hashtbl.replace name_to_id r.name id)
                rows)
            columns;
          let ids = List.rev !ids in
          let buf = Buffer.create 2048 in
          Buffer.add_string buf "# Microbenchmark trend (ns/op)\n\n";
          Buffer.add_string buf
            ("| micro | "
            ^ String.concat " | " (List.map fst columns)
            ^ " |\n");
          Buffer.add_string buf
            ("|---|" ^ String.concat "" (List.map (fun _ -> "---|") columns)
            ^ "\n");
          List.iter
            (fun id ->
              let cells =
                List.map
                  (fun (_, rows) ->
                    match
                      List.find_opt
                        (fun r -> String.equal (canonical r) id)
                        rows
                    with
                    | Some { ns_per_op = Some ns; _ } ->
                        Printf.sprintf "%.1f" ns
                    | Some { ns_per_op = None; _ } | None -> "—")
                  columns
              in
              Buffer.add_string buf
                ("| `" ^ id ^ "` | " ^ String.concat " | " cells ^ " |\n"))
            ids;
          Ok (Buffer.contents buf))
