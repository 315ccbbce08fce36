type 'a t = {
  data : 'a option array;
  mutable head : int; (* next slot to pop *)
  mutable size : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; head = 0; size = 0; dropped = 0 }

let capacity r = Array.length r.data
let length r = r.size
let is_full r = r.size = Array.length r.data

let push r v =
  if is_full r then begin
    r.dropped <- r.dropped + 1;
    false
  end
  else begin
    let tail = (r.head + r.size) mod Array.length r.data in
    r.data.(tail) <- Some v;
    r.size <- r.size + 1;
    true
  end

let pop r =
  if r.size = 0 then None
  else begin
    let v = r.data.(r.head) in
    r.data.(r.head) <- None;
    r.head <- (r.head + 1) mod Array.length r.data;
    r.size <- r.size - 1;
    v
  end

let pop_batch r ~max =
  let rec loop n acc =
    if n = 0 then List.rev acc
    else
      match pop r with
      | None -> List.rev acc
      | Some v -> loop (n - 1) (v :: acc)
  in
  loop max []

let drops r = r.dropped

let clear r =
  Array.fill r.data 0 (Array.length r.data) None;
  r.head <- 0;
  r.size <- 0

let to_list r =
  List.init r.size (fun i ->
      match r.data.((r.head + i) mod Array.length r.data) with
      | Some v -> v
      | None -> assert false)
