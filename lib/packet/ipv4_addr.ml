type t = int

let mask32 = 0xFFFF_FFFF
let of_int n = n land mask32
let to_int t = t

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let byte x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | Some _ | None -> invalid_arg ("Ipv4_addr.of_string: bad octet " ^ x)
      in
      List.fold_left (fun acc x -> (acc lsl 8) lor byte x) 0 [ a; b; c; d ]
  | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s)

let to_string t =
  (* planck-lint: allow hot-alloc -- journal labels and error messages only; data-plane code keys on the int *)
  Printf.sprintf "%d.%d.%d.%d"
    ((t lsr 24) land 0xFF) ((t lsr 16) land 0xFF)
    ((t lsr 8) land 0xFF) (t land 0xFF)

let host i = of_int (0x0A00_0000 lor (i land 0xFFFF))
let equal = Int.equal
let compare = Int.compare

(* planck-lint: allow hot-alloc -- journal-label formatting, guarded at every call site *)
let pp ppf t = Format.pp_print_string ppf (to_string t)

let host_id t =
  if t lsr 16 = 0x0A00 then Some (t land 0xFFFF) else None
