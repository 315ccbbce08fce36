module Time = Planck_util.Time
module Wheel = Planck_util.Timer_wheel
module Metrics = Planck_telemetry.Metrics
module Journal = Planck_telemetry.Journal

(* Process-wide aggregates (label-less) for CLI and bench snapshots;
   each engine additionally registers instance metrics under its own
   label so concurrent testbeds in one process don't clobber each
   other. The aggregate high-water is kept monotone across engines. *)
let m_events = Metrics.counter ~subsystem:"engine" ~name:"events_processed" ()

let m_pending_hw =
  Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ()

let aggregate_hw = Atomic.make 0
let next_engine_id = Atomic.make 0

(* The queue hands out int ids; [callbacks] maps each id to what runs
   when it fires. A one-shot id is released as it fires, so the table
   stays as large as the most ids ever held at once. *)
type t = {
  queue : Wheel.t;
  mutable callbacks : (unit -> unit) array;
  mutable one_shot : bool array;
  label : string;
  mutable clock : Time.t;
  mutable processed : int;
  mutable max_pending : int;
  tel_pending_hw : Metrics.gauge;
  tel_cancelled : Metrics.counter;
  journal : Journal.t;
}

(* Sized like the queue's id arrays: a small testbed's set-up fills the
   table without growing it in the major heap. *)
let initial_ids = 512

let create ?label ?(journal = Journal.default) () =
  let label =
    match label with
    | Some l -> l
    | None ->
        let id = Atomic.fetch_and_add next_engine_id 1 in
        Printf.sprintf "engine%d" id
  in
  {
    queue = Wheel.create ();
    callbacks = Array.make initial_ids ignore;
    one_shot = Array.make initial_ids false;
    label;
    clock = 0;
    processed = 0;
    max_pending = 0;
    tel_pending_hw =
      Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ~label ();
    tel_cancelled =
      Metrics.counter ~subsystem:"engine" ~name:"timers_cancelled" ~label ();
    journal;
  }

let now t = t.clock
let label t = t.label
let journal t = t.journal

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

(* An id from the queue, with its table cells set. Ids are dense, so a
   new one is at most the table's length. *)
let alloc t f ~one_shot =
  let id = Wheel.alloc t.queue in
  if id = Array.length t.callbacks then begin
    let n = 2 * id in
    let callbacks = Array.make n ignore and flags = Array.make n false in
    Array.blit t.callbacks 0 callbacks 0 id;
    Array.blit t.one_shot 0 flags 0 id;
    t.callbacks <- callbacks;
    t.one_shot <- flags
  end;
  t.callbacks.(id) <- f;
  t.one_shot.(id) <- one_shot;
  id

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Wheel.schedule t.queue (alloc t f ~one_shot:true) ~key:time;
  note_scheduled t

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) f

module Timer = struct
  type engine = t

  (* The timer's id is never released: it owns one cell of the
     callback table for the engine's lifetime. *)
  type t = { engine : engine; id : int }

  let create engine callback =
    { engine; id = alloc engine callback ~one_shot:false }

  let set_callback tm f = tm.engine.callbacks.(tm.id) <- f
  let pending tm = Wheel.is_pending tm.engine.queue tm.id

  let cancel tm =
    if Wheel.cancel tm.engine.queue tm.id then
      Metrics.Counter.incr tm.engine.tel_cancelled

  (* Scheduling a pending id supersedes it, which the queue counts as
     a cancellation. *)
  let reschedule_at tm ~time =
    let e = tm.engine in
    if time < e.clock then
      invalid_arg "Engine.Timer.reschedule_at: time in the past";
    if Wheel.is_pending e.queue tm.id then Metrics.Counter.incr e.tel_cancelled;
    Wheel.schedule e.queue tm.id ~key:time;
    note_scheduled e

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

(* Fire the next event if it is due by [horizon]: one slot search per
   event, and the taken key is the new clock. *)
let step_until t horizon =
  let id = Wheel.take_until t.queue horizon in
  id >= 0
  && begin
       t.clock <- Wheel.last_key t.queue;
       let f = t.callbacks.(id) in
       if t.one_shot.(id) then begin
         t.callbacks.(id) <- ignore;
         Wheel.release t.queue id
       end;
       t.processed <- t.processed + 1;
       f ();
       true
     end

(* The process-wide count is fed once per [step]/[run] rather than per
   event: shard domains run their engines concurrently, and a per-event
   add would contend on one counter cell. *)
let step t =
  let fired = step_until t max_int in
  if fired then Metrics.Counter.incr m_events;
  fired

let run ?until t =
  let before = t.processed in
  (match until with
  | None -> while step_until t max_int do () done
  | Some horizon ->
      while step_until t horizon do () done;
      t.clock <- horizon);
  Metrics.Counter.add m_events (t.processed - before)

let events_processed t = t.processed
let pending t = Wheel.length t.queue
let max_pending t = t.max_pending
let timers_cancelled t = Wheel.total_cancelled t.queue
