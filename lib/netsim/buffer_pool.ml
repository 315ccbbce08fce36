type t = {
  total : int;
  reservation : int;
  alpha : float;
  per_port : int array; (* total bytes queued per port *)
  caps : int option array;
  mutable shared : int; (* bytes drawn from the shared region *)
  mutable shared_hw : int; (* high-water mark of [shared] *)
}

let create ~total ~reservation ~alpha ~ports =
  if ports <= 0 then invalid_arg "Buffer_pool.create: ports must be positive";
  if reservation < 0 || reservation * ports > total then
    invalid_arg "Buffer_pool.create: static region exceeds total";
  if alpha <= 0.0 then invalid_arg "Buffer_pool.create: alpha must be positive";
  {
    total;
    reservation;
    alpha;
    per_port = Array.make ports 0;
    caps = Array.make ports None;
    shared = 0;
    shared_hw = 0;
  }

let shared_capacity t = t.total - (t.reservation * Array.length t.per_port)

let set_port_cap t ~port cap = t.caps.(port) <- cap

(* A port's occupancy splits into up-to-[reservation] static bytes plus
   the remainder drawn from the shared region. Admitting [bytes_]
   requires: the port cap (if any) holds; the extra shared demand fits in
   the remaining shared capacity; and the port's resulting shared usage
   stays under the dynamic threshold alpha * (shared remaining). *)
let try_alloc t ~port ~bytes_ =
  if bytes_ < 0 then invalid_arg "Buffer_pool.try_alloc: negative size";
  let used = t.per_port.(port) in
  let new_used = used + bytes_ in
  let cap_ok =
    match t.caps.(port) with None -> true | Some c -> new_used <= c
  in
  let shared_before = Int.max 0 (used - t.reservation) in
  let shared_after = Int.max 0 (new_used - t.reservation) in
  let demand = shared_after - shared_before in
  let remaining = shared_capacity t - t.shared in
  let dt_ok =
    demand = 0
    || (demand <= remaining
        && float_of_int shared_after <= t.alpha *. float_of_int remaining)
  in
  if cap_ok && dt_ok then begin
    t.shared <- t.shared + demand;
    if t.shared > t.shared_hw then t.shared_hw <- t.shared;
    t.per_port.(port) <- new_used;
    true
  end
  else false

let release t ~port ~bytes_ =
  if bytes_ < 0 then invalid_arg "Buffer_pool.release: negative size";
  let used = t.per_port.(port) in
  if bytes_ > used then invalid_arg "Buffer_pool.release: over-release";
  let shared_before = Int.max 0 (used - t.reservation) in
  let shared_after = Int.max 0 (used - bytes_ - t.reservation) in
  t.shared <- t.shared - (shared_before - shared_after);
  t.per_port.(port) <- used - bytes_

let port_used t ~port = t.per_port.(port)
let shared_used t = t.shared
let shared_high_water t = t.shared_hw
let total_used t = Array.fold_left ( + ) 0 t.per_port
let capacity t = t.total
