module Time = Planck_util.Time
module Ring = Planck_util.Ring

type series = { name : string; probe : unit -> float }

type t = {
  interval : Time.t;
  mutable series : series list; (* reversed: newest registration first *)
  ring : (Time.t * float array) Ring.t;
}

let create ?(capacity = 65536) ~interval () =
  if interval <= 0 then invalid_arg "Timeseries.create: interval <= 0";
  { interval; series = []; ring = Ring.create ~capacity }

let interval t = t.interval

let add_series t ~name probe =
  if String.exists (fun c -> c = ',' || c = '\n') name then
    invalid_arg "Timeseries.add_series: name contains ',' or newline";
  t.series <- { name; probe } :: t.series

let names t = List.rev_map (fun s -> s.name) t.series

let sample t ~now =
  let n = List.length t.series in
  let row = Array.make n 0.0 in
  (* series is newest-first; fill the row back to front so column order
     matches registration order. *)
  List.iteri
    (fun i s -> row.(n - 1 - i) <- s.probe ())
    t.series;
  if Ring.is_full t.ring then ignore (Ring.pop t.ring);
  ignore (Ring.push t.ring (now, row))

let start t ~every ~clock =
  every ~period:t.interval (fun () -> sample t ~now:(clock ()))

let rows t = Ring.to_list t.ring

(* ---- CSV export / import ---- *)

(* Reuse the JSON float emitter: shortest representation that
   round-trips the double, so of_csv (float_of_string) is lossless. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else if Float.is_nan v then "nan"
  else
    let s = Printf.sprintf "%.15g" v in
    if Float.equal (float_of_string s) v then s
    else Printf.sprintf "%.17g" v

let to_csv t =
  let names = names t in
  let width = List.length names in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time_s";
  List.iter
    (fun n ->
      Buffer.add_char buf ',';
      Buffer.add_string buf n)
    names;
  Buffer.add_char buf '\n';
  List.iter
    (fun (ts, row) ->
      Buffer.add_string buf (float_str (Time.to_float_s ts));
      for i = 0 to width - 1 do
        Buffer.add_char buf ',';
        Buffer.add_string buf
          (if i < Array.length row then float_str row.(i) else "nan")
      done;
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let of_csv s =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' s)
  in
  match lines with
  | [] -> Error "empty CSV"
  | header :: data -> (
      match String.split_on_char ',' header with
      | "time_s" :: names ->
          let parse_row i line =
            match String.split_on_char ',' line with
            | time :: cells -> (
                let parse c = float_of_string_opt (String.trim c) in
                match parse time with
                | None -> Error (Printf.sprintf "line %d: bad time %S" i time)
                | Some t ->
                    let vals = List.map parse cells in
                    if List.exists Option.is_none vals then
                      Error (Printf.sprintf "line %d: bad value" i)
                    else
                      Ok (t, Array.of_list (List.filter_map Fun.id vals)))
            | [] -> Error (Printf.sprintf "line %d: empty" i)
          in
          let rec go i acc = function
            | [] -> Ok (names, List.rev acc)
            | line :: rest -> (
                match parse_row i line with
                | Ok row -> go (i + 1) (row :: acc) rest
                | Error e -> Error e)
          in
          go 2 [] data
      | _ -> Error "CSV header must start with time_s")
