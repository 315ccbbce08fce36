type t = int

let zero = 0
let microsecond = 1_000
let millisecond = 1_000_000
let second = 1_000_000_000
let ns n = n
let us n = n * microsecond
let ms n = n * millisecond
let s n = n * second
let of_float_s x = int_of_float (Float.round (x *. 1e9))
let to_float_s t = float_of_int t /. 1e9
let to_float_ms t = float_of_int t /. 1e6
let to_float_us t = float_of_int t /. 1e3

let pp ppf t =
  let a = abs t in
  if a >= second then Format.fprintf ppf "%.3fs" (to_float_s t)
  else if a >= millisecond then Format.fprintf ppf "%.2fms" (to_float_ms t)
  else if a >= microsecond then Format.fprintf ppf "%.2fus" (to_float_us t)
  else Format.fprintf ppf "%dns" t

let to_string t = Format.asprintf "%a" pp t
