(* Conservative-lookahead synchronization (the classic
   Chandy-Misra-Bryant bound, specialized to lockstep windows): with
   [W <= min cross-link prop delay], a frame transmitted during window
   [r] cannot arrive before window [r+1] starts, so shards only need to
   exchange frames at window boundaries.

   Round protocol, per shard domain (engine clock = [t], window [W]):

     publish done flag -> barrier -> stop if horizon reached or all
     done -> drain channels -> Engine.run ~until:(t + W) -> repeat

   One barrier per round. The drain is deterministic without a second
   barrier because entries are stamped with the transmit window: a
   shard entering round [r] pops exactly the entries stamped [< r] —
   all present, since their producers passed the same barrier — and
   leaves anything a fast producer already pushed for round [r] (the
   SPSC queue makes that concurrent push safe). Done flags are
   double-buffered by round parity so a fast shard's round [r+2] write
   cannot race a slow shard still reading round [r]'s slot. *)

module Time = Planck_util.Time
module Spsc = Planck_util.Spsc
module Fifo = Planck_util.Fifo
module Packet = Planck_packet.Packet
module Journal = Planck_telemetry.Journal
module Metrics = Planck_telemetry.Metrics

type entry = { w : int; ts : Time.t; pkt : Packet.t }
(* [arrivals] holds drained frames waiting for their arrival event, keyed
   by arrival time; every such event runs the one [deliver_next], which
   delivers the oldest. *)
type chan = {
  q : entry Spsc.t;
  arrivals : Packet.t Fifo.t;
  mutable last_ts : Time.t;
  deliver_next : unit -> unit;
}

type barrier = {
  m : Mutex.t;
  cv : Condition.t;
  total : int;
  mutable count : int;
  mutable phase : int;
  mutable aborted : bool;
}

type group = {
  n : int;
  engines : Engine.t array;
  mutable look : Time.t option;
  (* per-destination channels, registration order *)
  incoming : chan list array;
  (* per-source current window index; written only by that shard's
     domain, read only by its handoff closures on the same domain *)
  rounds : int array;
  barrier : barrier;
  (* done flags, double-buffered by round parity *)
  flags : bool array array;
  (* the label-less engine rows [run] adds its shards' counts to *)
  tel_events : Metrics.counter;
  tel_pending_hw : Metrics.gauge;
}

(* Each engine records into its own whole-run shard journal, which is on
   iff [Journal.default] is on now: enable it before building a group. *)
let create ~shards =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let on = Journal.enabled Journal.default in
  let engine i =
    let journal = Journal.shard_journal ~shard:i in
    Journal.set_enabled journal on;
    Engine.create ~label:(Printf.sprintf "shard%d" i) ~journal ()
  in
  {
    n = shards;
    engines = Array.init shards engine;
    look = None;
    incoming = Array.make shards [];
    rounds = Array.make shards 0;
    barrier =
      {
        m = Mutex.create ();
        cv = Condition.create ();
        total = shards;
        count = 0;
        phase = 0;
        aborted = false;
      };
    flags = [| Array.make shards false; Array.make shards false |];
    tel_events = Metrics.counter ~subsystem:"engine" ~name:"events_processed" ();
    tel_pending_hw =
      Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ();
  }

let shards g = g.n

let check_shard g s label =
  if s < 0 || s >= g.n then
    invalid_arg (Printf.sprintf "Shard.%s: shard %d out of range" label s)

let engine g s =
  check_shard g s "engine";
  g.engines.(s)

let lookahead g = g.look

let channel g ~src ~dst ~prop_delay ~deliver =
  check_shard g src "channel";
  check_shard g dst "channel";
  if src = dst then invalid_arg "Shard.channel: src and dst coincide";
  if prop_delay <= Time.zero then
    invalid_arg "Shard.channel: prop_delay must be positive";
  g.look <-
    Some (match g.look with None -> prop_delay | Some l -> min l prop_delay);
  let q = Spsc.create () in
  let arrivals = Fifo.create ~dummy:Packet.placeholder () in
  let deliver_next () = deliver (Fifo.pop arrivals) in
  g.incoming.(dst) <-
    g.incoming.(dst) @ [ { q; arrivals; last_ts = Time.zero; deliver_next } ];
  fun ts pkt -> Spsc.push q { w = g.rounds.(src); ts; pkt }

(* The window: the lookahead bound, capped at the 10 ms chunk the
   single-domain runner uses — which also makes a group with no cross
   links (one shard, or disconnected shards) advance in exactly the
   single-domain chunk sequence. *)
let window g =
  let chunk = Time.ms 10 in
  match g.look with None -> chunk | Some l -> min l chunk

let barrier_await b =
  Mutex.lock b.m;
  let ok =
    if b.aborted then false
    else begin
      let ph = b.phase in
      b.count <- b.count + 1;
      if b.count = b.total then begin
        b.count <- 0;
        b.phase <- ph + 1;
        Condition.broadcast b.cv
      end
      else
        while b.phase = ph && not b.aborted do
          Condition.wait b.cv b.m
        done;
      not b.aborted
    end
  in
  Mutex.unlock b.m;
  ok

let barrier_abort b =
  Mutex.lock b.m;
  b.aborted <- true;
  Condition.broadcast b.cv;
  Mutex.unlock b.m

(* Pop every entry transmitted before round [r] and schedule its
   arrival in this shard's event queue, one event per frame. Entries are
   popped in channel registration order, then FIFO per channel — both
   deterministic — and their timestamps are >= the shard's clock by the
   lookahead bound. A channel's arrival events fire in (time, seq)
   order, which is the order its frames were queued only while arrival
   times never decrease; one link's [now + prop_delay] guarantees
   that, and the check keeps it so. *)
let drain g me r =
  let eng = g.engines.(me) in
  List.iter
    (fun c ->
      let rec go () =
        match Spsc.peek c.q with
        | Some e when e.w < r ->
            ignore (Spsc.pop c.q);
            if e.ts < c.last_ts then
              invalid_arg "Shard: arrival times decrease on a channel";
            c.last_ts <- e.ts;
            Fifo.push c.arrivals ~key:e.ts e.pkt;
            Engine.schedule_at eng ~time:e.ts c.deliver_next;
            go ()
        | Some _ | None -> ()
      in
      go ())
    g.incoming.(me)

let shard_body g me ~horizon ~local_done =
  let eng = g.engines.(me) in
  let w = window g in
  let rec loop r t =
    g.flags.(r land 1).(me) <- local_done me;
    if barrier_await g.barrier then begin
      let all_done = Array.for_all Fun.id g.flags.(r land 1) in
      if not (all_done || t >= horizon) then begin
        drain g me r;
        g.rounds.(me) <- r;
        let until = min horizon (t + w) in
        Engine.run ~until eng;
        loop (r + 1) until
      end
    end
  in
  loop 0 Time.zero

let events g =
  Array.fold_left (fun n e -> n + Engine.events_processed e) 0 g.engines

let run g ~horizon ~local_done =
  let before = events g in
  let doms =
    Array.init g.n (fun me ->
        Domain.spawn (fun () ->
            try shard_body g me ~horizon ~local_done
            with exn ->
              barrier_abort g.barrier;
              raise exn))
  in
  let first_exn = ref None in
  Array.iter
    (fun d ->
      try Domain.join d
      with exn -> if Option.is_none !first_exn then first_exn := Some exn)
    doms;
  (* On this domain, after the join has ordered the shards' counts
     before these reads: each shard engine publishes only its own rows. *)
  Metrics.Counter.add g.tel_events (events g - before);
  let top =
    Array.fold_left (fun m e -> max m (Engine.max_pending e)) 0 g.engines
  in
  if top > int_of_float (Metrics.Gauge.value g.tel_pending_hw) then
    Metrics.Gauge.set_int g.tel_pending_hw top;
  match !first_exn with None -> () | Some exn -> raise exn

let merge_journals g ~into =
  Journal.merge_into into
    (List.init g.n (fun i -> (i, Engine.journal g.engines.(i))))
