module Time = Planck_util.Time
module Wheel = Planck_util.Timer_wheel
module Metrics = Planck_telemetry.Metrics
module Journal = Planck_telemetry.Journal

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
  journal : Journal.t;
  (* rows in [Metrics.default]; [published_*]: counts added to them *)
  tel_events : Metrics.counter option;
  tel_pending_hw : Metrics.gauge;
  tel_cancelled : Metrics.counter;
  mutable published_events : int;
  mutable published_cancelled : int;
}

(* Sized like the queue's id arrays: a small testbed's set-up fills the
   table without growing it in the major heap. *)
let initial_ids = 512

(* A labelled engine (a shard) has no events row: its group adds its
   events to the label-less one. *)
let create ?(label = "") ?(journal = Journal.default) () =
  {
    queue = Wheel.create ();
    callbacks = Array.make initial_ids ignore;
    one_shot = Array.make initial_ids false;
    label;
    clock = 0;
    processed = 0;
    max_pending = 0;
    journal;
    tel_events =
      (if label = "" then
         Some (Metrics.counter ~subsystem:"engine" ~name:"events_processed" ())
       else None);
    tel_pending_hw =
      Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ~label ();
    tel_cancelled =
      Metrics.counter ~subsystem:"engine" ~name:"timers_cancelled" ~label ();
    published_events = 0;
    published_cancelled = 0;
  }

let now t = t.clock
let label t = t.label
let journal t = t.journal

let note_scheduled t =
  let n = Wheel.length t.queue in
  if n > t.max_pending then t.max_pending <- n

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

  let cancel tm = ignore (Wheel.cancel tm.engine.queue tm.id : bool)

  (* Scheduling a pending id supersedes it, which the queue counts as
     a cancellation. *)
  let reschedule_at tm ~time =
    let e = tm.engine in
    if time < e.clock then
      invalid_arg "Engine.Timer.reschedule_at: time in the past";
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

(* Called on the engine's own domain: a row has one writer while no
   two engines of its label run at once. *)
let publish t =
  (match t.tel_events with
  | Some c -> Metrics.Counter.add c (t.processed - t.published_events)
  | None -> ());
  let cancelled = Wheel.total_cancelled t.queue in
  Metrics.Counter.add t.tel_cancelled (cancelled - t.published_cancelled);
  t.published_events <- t.processed;
  t.published_cancelled <- cancelled;
  if t.max_pending > int_of_float (Metrics.Gauge.value t.tel_pending_hw) then
    Metrics.Gauge.set_int t.tel_pending_hw t.max_pending

let step t =
  let fired = step_until t max_int in
  publish t;
  fired

let run ?until t =
  (match until with
  | None -> while step_until t max_int do () done
  | Some horizon ->
      while step_until t horizon do () done;
      t.clock <- horizon);
  publish t

let events_processed t = t.processed
let pending t = Wheel.length t.queue
let max_pending t = t.max_pending
let timers_cancelled t = Wheel.total_cancelled t.queue
