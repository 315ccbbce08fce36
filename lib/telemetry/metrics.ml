(* The typed metric registry. Handles are registered once (at module or
   object creation time) and updated on hot paths; every update is O(1)
   and starts with a single branch on the registry's enabled flag, so a
   disabled registry costs one load+test per instrumentation point. *)

type key = { k_subsystem : string; k_name : string; k_label : string }

type registry = {
  mutable on : bool;
  entries : (key, entry) Hashtbl.t;
}

and entry = { key : key; data : data }

and data = C of counter | G of gauge | H of histogram | V of counter_vector

(* Atomic, so shard domains may share a counter without losing
   increments. *)
and counter = { c_reg : registry; c_value : int Atomic.t }

(* Plain ints: each cell has one writer domain (see metrics.mli). Growth
   swaps in a longer copy, so updates read [v_cells] afresh. *)
and counter_vector = { v_reg : registry; mutable v_cells : int array }

and gauge = {
  g_reg : registry;
  mutable g_value : float;
  mutable g_max : float;
}

and histogram = {
  h_reg : registry;
  h_buckets : int array; (* h_buckets.(i) counts values in [2^i, 2^(i+1)) *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

let create ?(enabled = true) () = { on = enabled; entries = Hashtbl.create 64 }

(* The process-wide registry every built-in instrumentation point uses.
   Disabled by default: an uninstrumented run pays only the branch. *)
let default = create ~enabled:false ()

let set_enabled reg on = reg.on <- on
let enabled reg = reg.on

let bucket_count = 63

let register reg ~subsystem ~name ~label make =
  let key = { k_subsystem = subsystem; k_name = name; k_label = label } in
  match Hashtbl.find_opt reg.entries key with
  | Some entry -> entry.data
  | None ->
      let data = make () in
      Hashtbl.replace reg.entries key { key; data };
      data

let kind_mismatch key =
  invalid_arg
    (Printf.sprintf "Metrics: %s/%s[%s] already registered with another kind"
       key.k_subsystem key.k_name key.k_label)

(* Labels ending in ".p<digits>" are reserved for vector rows: a scalar
   may not take one, so no row is ever listed twice. Two vectors' rows
   never meet either, since a row label splits into its vector's label
   and index only at its last ".p". *)
let register_scalar reg ~subsystem ~name ~label make =
  let n = String.length label in
  let rec digits_from j =
    if j > 0 && label.[j - 1] >= '0' && label.[j - 1] <= '9' then
      digits_from (j - 1)
    else j
  in
  let d = digits_from n in
  if d < n && d >= 2 && label.[d - 2] = '.' && label.[d - 1] = 'p' then
    invalid_arg
      (Printf.sprintf "Metrics: %s/%s[%s] is a counter-vector row label"
         subsystem name label);
  register reg ~subsystem ~name ~label make

let counter ?(registry = default) ~subsystem ~name ?(label = "") () =
  match
    register_scalar registry ~subsystem ~name ~label (fun () ->
        C { c_reg = registry; c_value = Atomic.make 0 })
  with
  | C c -> c
  | G _ | H _ | V _ ->
      kind_mismatch { k_subsystem = subsystem; k_name = name; k_label = label }

let counter_vector ?(registry = default) ~subsystem ~name ?(label = "") ~ports
    () =
  match
    register registry ~subsystem ~name ~label (fun () ->
        V { v_reg = registry; v_cells = Array.make ports 0 })
  with
  | V v ->
      let cells = v.v_cells in
      if ports > Array.length cells then begin
        let grown = Array.make ports 0 in
        Array.blit cells 0 grown 0 (Array.length cells);
        v.v_cells <- grown
      end;
      v
  | C _ | G _ | H _ ->
      kind_mismatch { k_subsystem = subsystem; k_name = name; k_label = label }

let gauge ?(registry = default) ~subsystem ~name ?(label = "") () =
  match
    register_scalar registry ~subsystem ~name ~label (fun () ->
        G { g_reg = registry; g_value = 0.0; g_max = neg_infinity })
  with
  | G g -> g
  | C _ | H _ | V _ ->
      kind_mismatch { k_subsystem = subsystem; k_name = name; k_label = label }

let histogram ?(registry = default) ~subsystem ~name ?(label = "") () =
  match
    register_scalar registry ~subsystem ~name ~label (fun () ->
        H
          {
            h_reg = registry;
            h_buckets = Array.make bucket_count 0;
            h_count = 0;
            h_sum = 0;
            h_min = max_int;
            h_max = 0;
          })
  with
  | H h -> h
  | C _ | G _ | V _ ->
      kind_mismatch { k_subsystem = subsystem; k_name = name; k_label = label }

module Counter = struct
  let add c n =
    if c.c_reg.on then ignore (Atomic.fetch_and_add c.c_value n : int)

  let incr c = add c 1
  let value c = Atomic.get c.c_value
end

module Counter_vector = struct
  let incr v i =
    if v.v_reg.on then begin
      let cells = v.v_cells in
      cells.(i) <- cells.(i) + 1
    end
end

module Gauge = struct
  let set g v =
    if g.g_reg.on then begin
      g.g_value <- v;
      if v > g.g_max then g.g_max <- v
    end

  let set_int g v = if g.g_reg.on then set g (float_of_int v)
  let value g = g.g_value
  let max_value g = if Float.equal g.g_max neg_infinity then 0.0 else g.g_max
end

module Histogram = struct
  (* Log2 bucketing: bucket 0 holds values <= 1, bucket i (i >= 1) holds
     [2^i, 2^(i+1)). The loop runs at most 62 iterations, so updates are
     O(1) with a small constant. *)
  let bucket_index v =
    if v <= 1 then 0
    else begin
      let i = ref 0 and v = ref v in
      while !v > 1 do
        v := !v lsr 1;
        incr i
      done;
      !i
    end

  let bucket_lo i = if i = 0 then 0 else 1 lsl i
  let bucket_hi i = (1 lsl (i + 1)) - 1

  let observe h v =
    if h.h_reg.on then begin
      let v = if v < 0 then 0 else v in
      let i = bucket_index v in
      h.h_buckets.(i) <- h.h_buckets.(i) + 1;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum + v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v
    end

  let count h = h.h_count
  let sum h = h.h_sum
  let min_value h = if h.h_count = 0 then 0 else h.h_min
  let max_value h = h.h_max

  let mean h =
    if h.h_count = 0 then 0.0
    else float_of_int h.h_sum /. float_of_int h.h_count

  (* Upper bound of the bucket where the cumulative count crosses q;
     exact values are not retained, so this is a <= 2x estimate. *)
  let quantile h q =
    if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q out of range";
    if h.h_count = 0 then 0
    else begin
      let target = q *. float_of_int h.h_count in
      let acc = ref 0 and result = ref (bucket_hi (bucket_count - 1)) in
      (try
         for i = 0 to bucket_count - 1 do
           acc := !acc + h.h_buckets.(i);
           if float_of_int !acc >= target then begin
             result := Stdlib.min h.h_max (bucket_hi i);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

  let nonzero_buckets h =
    let out = ref [] in
    for i = bucket_count - 1 downto 0 do
      if h.h_buckets.(i) > 0 then
        out := (bucket_lo i, bucket_hi i, h.h_buckets.(i)) :: !out
    done;
    !out
end

(* ---- Snapshots ---- *)

type value =
  | Counter_value of int
  | Gauge_value of { value : float; max : float }
  | Histogram_value of {
      count : int;
      sum : int;
      min : int;
      max : int;
      buckets : (int * int * int) list;
    }

type snapshot = {
  subsystem : string;
  name : string;
  label : string;
  value : value;
}

(* One row per scalar; a vector expands to one counter row per cell,
   labelled only now. *)
let snapshot_entry entry acc =
  let row label value =
    { subsystem = entry.key.k_subsystem; name = entry.key.k_name; label; value }
  in
  let scalar value = row entry.key.k_label value :: acc in
  match entry.data with
  | C c -> scalar (Counter_value (Atomic.get c.c_value))
  | G g -> scalar (Gauge_value { value = g.g_value; max = Gauge.max_value g })
  | H h ->
      scalar
        (Histogram_value
           {
             count = h.h_count;
             sum = h.h_sum;
             min = Histogram.min_value h;
             max = h.h_max;
             buckets = Histogram.nonzero_buckets h;
           })
  | V v ->
      let acc = ref acc in
      Array.iteri
        (fun i n ->
          let label = entry.key.k_label ^ ".p" ^ string_of_int i in
          acc := row label (Counter_value n) :: !acc)
        v.v_cells;
      !acc

let snapshot reg =
  Hashtbl.fold (fun _ entry acc -> snapshot_entry entry acc) reg.entries []
  |> List.sort (fun a b ->
         match String.compare a.subsystem b.subsystem with
         | 0 -> (
             match String.compare a.name b.name with
             | 0 -> String.compare a.label b.label
             | c -> c)
         | c -> c)

let reset reg =
  Hashtbl.iter
    (fun _ entry ->
      match entry.data with
      | C c -> Atomic.set c.c_value 0
      | G g ->
          g.g_value <- 0.0;
          g.g_max <- neg_infinity
      | H h ->
          Array.fill h.h_buckets 0 bucket_count 0;
          h.h_count <- 0;
          h.h_sum <- 0;
          h.h_min <- max_int;
          h.h_max <- 0
      | V v -> Array.fill v.v_cells 0 (Array.length v.v_cells) 0)
    reg.entries

let size reg =
  Hashtbl.fold
    (fun _ entry n ->
      match entry.data with
      | V v -> n + Array.length v.v_cells
      | C _ | G _ | H _ -> n + 1)
    reg.entries 0
