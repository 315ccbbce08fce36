(* A fixed reference loop, timed next to every pass. On a shared host
   the same simulation runs 10-20% slower at some times than at others;
   dividing a pass's host time by the loop's time, taken in the same
   process just before and after, cancels most of that drift. The loop
   does the simulator's kind of work (a binary heap of small records,
   hash-table updates, short-lived allocation) and is bench code, timed
   before set-up and after a full collection, so no library change
   moves it. One run of it takes about 20 ms. *)

type event = { at : int; tag : int }

let iterations = 40_000
let heap_size = 1 lsl 14

let next x = ((x * 1103515245) + 12345) land 0x3fffffff

let loop () =
  let heap = Array.make heap_size { at = 0; tag = 0 } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).at > e.at do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1).at < heap.(l).at then l + 1 else l in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let table = Hashtbl.create 4096 in
  let x = ref 1 in
  for _ = 2 to heap_size do
    x := next !x;
    push { at = !x land 0xfffff; tag = !x }
  done;
  for _ = 1 to iterations do
    let e = pop () in
    x := next !x;
    let key = !x land 0xfff in
    let scratch = List.init 8 (fun i -> i + e.tag) in
    Hashtbl.replace table key
      (List.fold_left ( + ) 0 scratch
      + Option.value ~default:0 (Hashtbl.find_opt table key));
    push { at = e.at + 1 + (!x land 0xffff); tag = e.tag + 1 }
  done;
  ignore (Sys.opaque_identity table)

(* Host seconds for the loop on [domains] domains at once, so a sharded
   workload is compared with a reference that also contends for cores
   and stops the world for minor collections. *)
let time ~domains =
  let t0 = Spans.now_ns () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn loop) in
  loop ();
  List.iter Domain.join others;
  float_of_int (Spans.now_ns () - t0) /. 1e9

(* [n] timings; a pass takes its median, which a burst of load on the
   host moves less than it moves one long timing. *)
let samples ~domains ~n = List.init n (fun _ -> time ~domains)

(* The median time of one run of the loop on the host the benchmark was
   calibrated on, a 2-vCPU Xeon VM (over 2,500 timings): 16.5 ms on one
   domain, 28 ms on two. Host seconds times [nominal_s / median] are
   seconds on that host. The constants cancel out of any comparison;
   they are there because BENCHMARK.json gives setup_s in seconds. *)
let nominal_s ~domains = if domains = 1 then 0.0165 else 0.028
