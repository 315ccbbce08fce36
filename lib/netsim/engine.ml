module Time = Planck_util.Time
module Wheel = Planck_util.Timer_wheel
module Metrics = Planck_telemetry.Metrics
module Profile = Planck_telemetry.Profile

(* Process-wide aggregates (label-less) for CLI and bench snapshots;
   each engine additionally registers instance metrics under its own
   label so concurrent testbeds in one process don't clobber each
   other. The aggregate high-water is kept monotone across engines. *)
let m_events = Metrics.counter ~subsystem:"engine" ~name:"events_processed" ()
let sp_dispatch = Profile.register "engine.dispatch"

let m_pending_hw =
  Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ()

let aggregate_hw = Atomic.make 0
let next_engine_id = Atomic.make 0

(* The default queue geometry for new engines. Mutable so tests and
   benches can A/B a whole experiment against the heap-only baseline
   without threading a config through every constructor. *)
let default_queue_config = Atomic.make Wheel.default_config
let set_default_queue c = Atomic.set default_queue_config c
let default_queue () = Atomic.get default_queue_config

type t = {
  queue : (unit -> unit) Wheel.t;
  label : string;
  mutable clock : Time.t;
  mutable processed : int;
  mutable max_pending : int;
  tel_pending_hw : Metrics.gauge;
  tel_cancelled : Metrics.counter;
}

let create ?label ?queue () =
  let label =
    match label with
    | Some l -> l
    | None ->
        let id = Atomic.fetch_and_add next_engine_id 1 in
        Printf.sprintf "engine%d" id
  in
  let tel_compactions =
    Metrics.counter ~subsystem:"engine" ~name:"compactions" ~label ()
  in
  let config =
    match queue with Some c -> c | None -> Atomic.get default_queue_config
  in
  {
    queue =
      Wheel.create ~config
        ~on_compaction:(fun () -> Metrics.Counter.incr tel_compactions)
        ();
    label;
    clock = 0;
    processed = 0;
    max_pending = 0;
    tel_pending_hw =
      Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ~label ();
    tel_cancelled =
      Metrics.counter ~subsystem:"engine" ~name:"timers_cancelled" ~label ();
  }

let now t = t.clock
let label t = t.label

let note_scheduled t =
  let n = Wheel.length t.queue in
  if n > t.max_pending then begin
    t.max_pending <- n;
    Metrics.Gauge.set_int t.tel_pending_hw n;
    (* monotone high-water bump: CAS loop so concurrent engines on
       separate domains never regress the aggregate *)
    let rec bump () =
      let cur = Atomic.get aggregate_hw in
      if n > cur then
        if Atomic.compare_and_set aggregate_hw cur n then
          Metrics.Gauge.set_int m_pending_hw n
        else bump ()
    in
    bump ()
  end

let insert t ~key f =
  let h = Wheel.add t.queue ~key f in
  note_scheduled t;
  h

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  ignore (insert t ~key:time f : (unit -> unit) Wheel.handle)

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  ignore (insert t ~key:(t.clock + delay) f : (unit -> unit) Wheel.handle)

module Timer = struct
  type engine = t

  type t = {
    engine : engine;
    mutable callback : unit -> unit;
    run : unit -> unit; (* the one closure ever queued for this timer *)
    mutable handle : (unit -> unit) Wheel.handle option;
  }

  let create engine callback =
    let rec tm =
      { engine; callback; run = (fun () -> tm.callback ()); handle = None }
    in
    tm

  let set_callback tm f = tm.callback <- f

  let pending tm =
    match tm.handle with Some h -> Wheel.is_pending h | None -> false

  let cancel tm =
    match tm.handle with
    | None -> ()
    | Some h ->
        if Wheel.cancel tm.engine.queue h then
          Metrics.Counter.incr tm.engine.tel_cancelled;
        tm.handle <- None

  let reschedule_at tm ~time =
    if time < tm.engine.clock then
      invalid_arg "Engine.Timer.reschedule_at: time in the past";
    cancel tm;
    tm.handle <- Some (insert tm.engine ~key:time tm.run)

  let reschedule tm ~delay =
    if delay < 0 then invalid_arg "Engine.Timer.reschedule: negative delay";
    reschedule_at tm ~time:(tm.engine.clock + delay)
end

let periodic t ~period ?until f =
  if period <= 0 then invalid_arg "Engine.periodic: period must be positive";
  let tm = Timer.create t f in
  let tick () =
    f ();
    match until with
    | Some horizon when t.clock + period > horizon -> ()
    | Some _ | None -> Timer.reschedule tm ~delay:period
  in
  Timer.set_callback tm tick;
  Timer.reschedule tm ~delay:period;
  tm

let every t ~period ?until f = ignore (periodic t ~period ?until f : Timer.t)

(* Fire the next event if it is due by [horizon]. [max_int] is both
   [next_key]'s empty sentinel and a legal time, so only [is_empty]
   tells them apart. *)
let step_until t horizon =
  let time = Wheel.next_key t.queue in
  if time > horizon || (time = max_int && Wheel.is_empty t.queue) then false
  else begin
    t.clock <- time;
    let f = Wheel.take t.queue in
    t.processed <- t.processed + 1;
    Metrics.Counter.incr m_events;
    Profile.enter sp_dispatch;
    f ();
    Profile.exit sp_dispatch;
    true
  end

let step t = step_until t max_int

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      while step_until t horizon do () done;
      t.clock <- horizon

let events_processed t = t.processed
let pending t = Wheel.length t.queue
let max_pending t = t.max_pending
let timers_cancelled t = Wheel.total_cancelled t.queue
let compactions t = Wheel.compactions t.queue
