(* SplitMix64 (Steele, Lea, Flood 2014): state advances by a fixed odd
   gamma; output is a bijective finalizer of the state.

   The state lives unboxed in an 8-byte buffer: a mutable [int64] field
   would box a fresh value on every draw, and the switch pipeline and
   host stack draw once per frame. *)

type t = { state : Bytes.t }

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state z =
  let state = Bytes.create 8 in
  set_state state 0 z;
  { state }

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let z = Int64.add (get_state t.state 0) golden_gamma in
  set_state t.state 0 z;
  mix z

let split t = of_state (bits64 t)

(* Rejection sampling over the low 62 bits avoids modulo bias. *)
let mask62 = 0x3FFF_FFFF_FFFF_FFFF

let rec draw t bound =
  let r = Int64.to_int (bits64 t) land mask62 in
  let v = r mod bound in
  if r - v > mask62 - bound + 1 then draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw t bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let derangement t n =
  if n < 2 then invalid_arg "Prng.derangement: need n >= 2";
  let rec try_once () =
    let a = permutation t n in
    let rec fixed i = i < n && (a.(i) = i || fixed (i + 1)) in
    if fixed 0 then try_once () else a
  in
  try_once ()

(* FNV-1a over the bytes. Unlike [Hashtbl.hash] this is a documented
   function of the string contents alone, so seeds derived from names
   stay stable across OCaml releases. *)
let seed_of_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  Int64.to_int !h land max_int
