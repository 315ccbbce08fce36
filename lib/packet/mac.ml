type t = int

let mask48 = 0xFFFF_FFFF_FFFF
let of_int n = n land mask48
let to_int t = t

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
      let byte x =
        match int_of_string_opt ("0x" ^ x) with
        | Some v when v >= 0 && v <= 0xFF -> v
        | Some _ | None -> invalid_arg ("Mac.of_string: bad octet " ^ x)
      in
      List.fold_left (fun acc x -> (acc lsl 8) lor byte x) 0 [ a; b; c; d; e; f ]
  | _ -> invalid_arg ("Mac.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xFF) ((t lsr 32) land 0xFF) ((t lsr 24) land 0xFF)
    ((t lsr 16) land 0xFF) ((t lsr 8) land 0xFF) (t land 0xFF)

let broadcast = mask48

(* Base host MACs are 02:00:00:00:hh:hh — locally administered unicast.
   Shadow MACs reuse the same host id and carry the alternate-route index
   in the fourth octet, so base<->shadow conversion is purely
   arithmetic. *)
let host i = of_int (0x0200_0000_0000 lor (i land 0xFFFF))
let[@inline] host_id t = if t lsr 24 = 0x02_0000 then t land 0xFFFF else -1
let alt t = (t lsr 16) land 0xFF

let shadow base ~alt =
  if alt < 0 then invalid_arg "Mac.shadow: negative alternate index";
  if alt > 0xFF then invalid_arg "Mac.shadow: alternate index too large";
  (base land lnot (0xFF lsl 16)) lor (alt lsl 16)

let base_of_shadow t = (shadow t ~alt:0, alt t)

let equal = Int.equal

let pp ppf t = Format.pp_print_string ppf (to_string t)
