let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. (n -. 1.0))

let percentile p xs =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  match xs with
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n = 1 then a.(0)
      else begin
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) in
        let hi = min (lo + 1) (n - 1) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
      end

let median xs = percentile 50.0 xs

let cdf xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  List.init n (fun i -> (a.(i), float_of_int (i + 1) /. float_of_int n))

let mean_relative_error ~truth ~estimate =
  if List.length truth <> List.length estimate then
    invalid_arg "Stats.mean_relative_error: length mismatch";
  let errors =
    List.filter_map
      (fun (t, e) ->
        if Float.equal t 0.0 then None else Some (abs_float (e -. t) /. t))
      (List.combine truth estimate)
  in
  mean errors

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  match xs with
  | [] -> Array.init bins (fun i -> (float_of_int i, 0))
  | xs ->
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      let width =
        if hi > lo then (hi -. lo) /. float_of_int bins else 1.0
      in
      let counts = Array.make bins 0 in
      let place x =
        let i = int_of_float ((x -. lo) /. width) in
        let i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
        counts.(i) <- counts.(i) + 1
      in
      List.iter place xs;
      Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts

module Online = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let mean t = if t.n = 0 then nan else t.mean

  let stddev t =
    if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))
end
