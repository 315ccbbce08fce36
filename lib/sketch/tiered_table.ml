module Time = Planck_util.Time
module Flow_key = Planck_packet.Flow_key
module Flow_table = Planck_collector.Flow_table
module Collector = Planck_collector.Collector
module Journal = Planck_telemetry.Journal
module Metrics = Planck_telemetry.Metrics

type config = {
  seed : int;
  depth : int;
  width : int;
  promote_bytes : int;
  max_exact : int;
  decay_interval : Time.t;
  sweep_interval : Time.t;
}

let default_config =
  {
    seed = 0x5eed;
    depth = 4;
    width = 16_384;
    (* ~8 full-size segments: an elephant crosses this within its
       first bursts, mice never do. Low enough that the promotion
       delay sits inside the rate estimator's anchoring window, so TE
       sees the same rate trajectory as with an exact-only table. *)
    promote_bytes = 8 * 1460;
    max_exact = 8_192;
    decay_interval = Time.ms 10;
    sweep_interval = Time.ms 5;
  }

type meta = { promoted_at : Time.t; est_at_promotion : int }

type t = {
  config : config;
  switch : int;
  journal : Journal.t;
  cms : Count_min.t;
  table : Flow_table.t;
  meta : meta Flow_key.Table.t;
  mutable next_decay : Time.t;  (* Time.zero = not yet armed *)
  mutable next_sweep : Time.t;
  mutable promotions : int;
  mutable demotions : int;
  mutable suppressed : int;
  metrics : Metrics.registry;  (* the registry of the [tel_*] handles *)
  tel_occupied : Metrics.gauge;
  tel_exact : Metrics.gauge;
  tel_error : Metrics.gauge;
  tel_promotions : Metrics.counter;
  tel_demotions : Metrics.counter;
  tel_suppressed : Metrics.counter;
}

(* Demotion: an idle promoted flow's exact entry expired. Credit the
   bytes it accumulated while exact back into the sketch, so if it
   resumes it is judged on its history rather than from zero. *)
let demote t ~now (entry : Flow_table.entry) =
  match Flow_key.Table.find_opt t.meta entry.key with
  | None -> ()
  | Some m ->
      Flow_key.Table.remove t.meta entry.key;
      let fold = entry.sampled_bytes in
      let (_ : int) = Count_min.update t.cms entry.key fold in
      t.demotions <- t.demotions + 1;
      Metrics.Counter.incr t.tel_demotions;
      if Journal.enabled t.journal then
        Journal.record t.journal ~ts:now
          (Journal.Flow_demoted
             {
               switch = t.switch;
               flow = Flow_key.to_string entry.key;
               fold_back_bytes = fold;
               lifetime_ns = now - m.promoted_at;
             })

let create ?(config = default_config) ~switch ~flow_timeout ~journal () =
  let table = Flow_table.create ~timeout:flow_timeout () in
  let label = "sw" ^ string_of_int switch in
  let gauge name = Metrics.gauge ~subsystem:"sketch" ~name ~label () in
  let counter name = Metrics.counter ~subsystem:"sketch" ~name ~label () in
  let t =
    {
      config;
      switch;
      journal;
      cms =
        Count_min.create ~seed:config.seed ~depth:config.depth
          ~width:config.width ();
      table;
      meta = Flow_key.Table.create 64;
      next_decay = Time.zero;
      next_sweep = Time.zero;
      promotions = 0;
      demotions = 0;
      suppressed = 0;
      metrics = Metrics.default;
      tel_occupied = gauge "sketch_occupied";
      tel_exact = gauge "exact_entries";
      tel_error = gauge "promote_overshoot_pct";
      tel_promotions = counter "promotions";
      tel_demotions = counter "demotions";
      tel_suppressed = counter "promotions_suppressed";
    }
  in
  Flow_table.add_on_expire table (fun ~now entry -> demote t ~now entry);
  t

let sample t ~key ~now ~bytes ~max_rate ~dst_mac =
  match Flow_table.find t.table key with
  | Some entry ->
      (* promoted: refresh liveness in place, no second lookup *)
      entry.last_seen <- now;
      entry.dst_mac <- dst_mac;
      Some entry
  | None ->
      let est = Count_min.update t.cms key bytes in
      if est < t.config.promote_bytes then None
      else if Flow_table.size t.table >= t.config.max_exact then begin
        (* exact tier full: keep counting approximately rather than
           evict a live elephant *)
        t.suppressed <- t.suppressed + 1;
        Metrics.Counter.incr t.tel_suppressed;
        None
      end
      else begin
        let entry =
          Flow_table.touch t.table ~key ~time:now ~max_rate ~dst_mac ()
        in
        Flow_key.Table.replace t.meta key
          { promoted_at = now; est_at_promotion = est };
        t.promotions <- t.promotions + 1;
        Metrics.Counter.incr t.tel_promotions;
        (* A collision-free sketch crosses the threshold by at most one
           sample's worth of bytes; the overshoot beyond that is
           overestimate noise, our per-switch estimate-error signal. *)
        if Metrics.enabled t.metrics then
          Metrics.Gauge.set t.tel_error
            (float_of_int (est - t.config.promote_bytes)
            /. float_of_int t.config.promote_bytes
            *. 100.0);
        if Journal.enabled t.journal then
          Journal.record t.journal ~ts:now
            (Journal.Flow_promoted
               {
                 switch = t.switch;
                 flow = Flow_key.to_string key;
                 est_bytes = est;
               });
        Some entry
      end

let tick t ~now =
  (if t.next_decay = Time.zero then
     t.next_decay <- now + t.config.decay_interval
   else
     while now >= t.next_decay do
       Count_min.halve t.cms;
       t.next_decay <- t.next_decay + t.config.decay_interval
     done);
  if t.next_sweep = Time.zero then t.next_sweep <- now + t.config.sweep_interval
  else if now >= t.next_sweep then begin
    let (_ : int) = Flow_table.sweep t.table ~now in
    t.next_sweep <- now + t.config.sweep_interval;
    if Metrics.enabled t.metrics then begin
      Metrics.Gauge.set_int t.tel_occupied (Count_min.occupied t.cms);
      Metrics.Gauge.set_int t.tel_exact (Flow_table.size t.table)
    end
  end

let backend t =
  {
    Collector.b_table = t.table;
    b_sample = (fun ~key ~now ~bytes ~max_rate ~dst_mac ->
      sample t ~key ~now ~bytes ~max_rate ~dst_mac);
    b_tick = (fun ~now -> tick t ~now);
  }

let table_kind ?config () =
  Collector.Custom_backend
    (fun ~switch ~flow_timeout ~journal ->
      backend (create ?config ~switch ~flow_timeout ~journal ()))

let sketch t = t.cms
let exact_size t = Flow_table.size t.table
let promotions t = t.promotions
let demotions t = t.demotions
let suppressed_promotions t = t.suppressed
