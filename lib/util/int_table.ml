(* Slot i keeps its key at [2i] and its value at [2i + 1], so a hit reads
   one cache line; an empty slot's key is [-1]. The table doubles as
   soon as it is more than half full, which keeps probe chains short.
   A key's home slot is the top bits of its product with an odd
   constant (Fibonacci hashing): keys that differ only in a middle
   octet, as a host's shadow MACs do, still spread over the table. *)

type t = {
  mutable slots : int array;
  mutable shift : int; (* 63 - log2 (number of slots) *)
  mutable size : int;
}

let empty = -1
let multiplier = 0x2545_F491_4F6C_DD1D

(* Index of [key]'s home slot in [slots]: even, below its length. *)
let home shift key = 2 * ((key * multiplier) lsr shift)

let make_slots bits = Array.make (2 lsl bits) empty

let create () = { slots = make_slots 3; shift = 60; size = 0 }

let length t = t.size

let check op key =
  if key < 0 then invalid_arg ("Int_table." ^ op ^ ": negative key")

(* The slot holding [key], or the empty slot that ends its chain. *)
let rec probe slots key j =
  let k = slots.(j) in
  if k = key || k = empty then j
  else probe slots key ((j + 2) land (Array.length slots - 1))

let find t key =
  check "find" key;
  let j = probe t.slots key (home t.shift key) in
  if t.slots.(j) = empty then -1 else t.slots.(j + 1)

let resize t bits =
  let old = t.slots in
  t.slots <- make_slots bits;
  t.shift <- 63 - bits;
  for i = 0 to (Array.length old / 2) - 1 do
    let key = old.(2 * i) in
    if key <> empty then begin
      let j = probe t.slots key (home t.shift key) in
      t.slots.(j) <- key;
      t.slots.(j + 1) <- old.((2 * i) + 1)
    end
  done

let replace t key v =
  check "replace" key;
  if v < 0 then invalid_arg "Int_table.replace: negative value";
  let j = probe t.slots key (home t.shift key) in
  if t.slots.(j) = empty then begin
    t.slots.(j) <- key;
    t.size <- t.size + 1
  end;
  t.slots.(j + 1) <- v;
  if 4 * t.size > Array.length t.slots then resize t (64 - t.shift)

(* Backward-shift delete: walk the chain after the hole and move back
   each entry whose home does not lie cyclically after the hole, so
   every remaining key is still reachable from its home. *)
let remove t key =
  check "remove" key;
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec fill hole j =
    let j = (j + 2) land mask in
    let k = slots.(j) in
    if k = empty then slots.(hole) <- empty
    else if (j - home t.shift k) land mask >= (j - hole) land mask then begin
      slots.(hole) <- k;
      slots.(hole + 1) <- slots.(j + 1);
      fill j j
    end
    else fill hole j
  in
  let j = probe slots key (home t.shift key) in
  if slots.(j) <> empty then begin
    t.size <- t.size - 1;
    fill j j
  end
