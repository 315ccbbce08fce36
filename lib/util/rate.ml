type t = float

let bps x = x
let mbps x = x *. 1e6
let gbps x = x *. 1e9
let to_gbps x = x /. 1e9

let tx_time rate ~bytes_ =
  if rate <= 0.0 then invalid_arg "Rate.tx_time: rate must be positive";
  let seconds = float_of_int (8 * bytes_) /. rate in
  let t = int_of_float (ceil (seconds *. 1e9)) in
  if bytes_ > 0 && t = 0 then 1 else t

let bytes_in rate d = int_of_float (rate *. Time.to_float_s d /. 8.0)

let of_bytes_per n d =
  if d <= 0 then invalid_arg "Rate.of_bytes_per: duration must be positive";
  float_of_int (8 * n) /. Time.to_float_s d

let pp ppf r =
  let a = abs_float r in
  if a >= 1e9 then Format.fprintf ppf "%.2fGbps" (r /. 1e9)
  else if a >= 1e6 then Format.fprintf ppf "%.2fMbps" (r /. 1e6)
  else if a >= 1e3 then Format.fprintf ppf "%.2fKbps" (r /. 1e3)
  else Format.fprintf ppf "%.0fbps" r
