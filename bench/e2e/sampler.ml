(* A statistical CPU profiler that needs no change to the library: a
   SIGPROF interval timer, and in the handler the current call stack,
   charged to its innermost lib/ frame (Layer.of_file). The kernel
   delivers SIGPROF at its tick rate (about 250 Hz), whatever interval
   is asked for.

   OCaml 5 runs a signal handler on whichever domain next polls, so on
   a sharded run a sample is charged to the stack of the shard domain
   that took it, not necessarily the one the kernel interrupted:
   attribution there is best effort. Counts are atomics because two
   domains can run the handler at once. *)

let counts = Array.init Layer.count (fun _ -> Atomic.make 0)

let innermost_lib_layer slots =
  let n = Array.length slots in
  let rec go i =
    if i = n then Layer.other
    else
      match Printexc.Slot.location slots.(i) with
      | Some loc when Layer.is_lib_file loc.Printexc.filename ->
          Layer.index (Layer.of_file loc.Printexc.filename)
      | Some _ | None -> go (i + 1)
  in
  go 0

let on_sample _signal =
  let layer =
    match Printexc.backtrace_slots (Printexc.get_callstack 64) with
    | Some slots -> innermost_lib_layer slots
    | None -> Layer.other
  in
  Atomic.incr counts.(layer)

let interval = 0.001

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

let stop () =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  (* A tick already in flight must not reach the default action, which
     terminates the process. *)
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let snapshot () = Array.map Atomic.get counts
