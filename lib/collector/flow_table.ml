module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Flow_key = Planck_packet.Flow_key
module Mac = Planck_packet.Mac
module Seq32 = Planck_packet.Seq32

type entry = {
  key : Flow_key.t;
  estimator : Rate_estimator.t;
  mutable dst_mac : Mac.t;
  mutable in_port : int;
  mutable out_port : int;
  mutable first_seen : Time.t;
  mutable last_seen : Time.t;
  mutable sampled_packets : int;
  mutable sampled_bytes : int;
  mutable seq_lo : int;
  mutable seq_hi : int;
}

type t = {
  entries : entry Flow_key.Table.t;
  timeout : Time.t;
  mutable on_expire : (now:Time.t -> entry -> unit) list;
}

let create ?(timeout = Time.ms 10) () =
  { entries = Flow_key.Table.create 64; timeout; on_expire = [] }

let add_on_expire t f = t.on_expire <- t.on_expire @ [ f ]

let touch t ~key ~time ?max_rate ~dst_mac () =
  match Flow_key.Table.find t.entries key with
  | entry ->
      entry.last_seen <- time;
      entry.dst_mac <- dst_mac;
      entry
  | exception Not_found ->
      let entry =
        {
          key;
          estimator = Rate_estimator.create ?max_rate ();
          dst_mac;
          in_port = -1;
          out_port = -1;
          first_seen = time;
          last_seen = time;
          sampled_packets = 0;
          sampled_bytes = 0;
          seq_lo = -1;
          seq_hi = 0;
        }
      in
      Flow_key.Table.replace t.entries key entry;
      entry

let find t key = Flow_key.Table.find_opt t.entries key

let expire t ~now dead =
  List.iter
    (fun entry ->
      Flow_key.Table.remove t.entries entry.key;
      List.iter (fun f -> f ~now entry) t.on_expire)
    dead

let active t ~now =
  let live = ref [] and dead = ref [] in
  (* Sorted so the surviving-entry list (and everything downstream: the
     congestion event's flow list, TE tie-breaks, expiry callbacks) is
     independent of hash-bucket layout. *)
  Flow_key.Table.iter_sorted
    (fun _key entry ->
      if now - entry.last_seen <= t.timeout then live := entry :: !live
      else dead := entry :: !dead)
    t.entries;
  expire t ~now (List.rev !dead);
  !live

let sweep t ~now =
  let dead = ref [] and n = ref 0 in
  Flow_key.Table.iter_sorted
    (fun _key entry ->
      if now - entry.last_seen > t.timeout then begin
        dead := entry :: !dead;
        incr n
      end)
    t.entries;
  expire t ~now (List.rev !dead);
  !n

let active_on_port t ~now ~out_port =
  List.filter (fun entry -> entry.out_port = out_port) (active t ~now)

let note_seq entry ~seq32 ~payload =
  if entry.seq_lo < 0 then begin
    entry.seq_lo <- seq32;
    entry.seq_hi <- seq32 + payload
  end
  else begin
    let seq = Seq32.unwrap ~base:entry.seq_hi seq32 in
    if seq < entry.seq_lo then entry.seq_lo <- seq;
    if seq + payload > entry.seq_hi then entry.seq_hi <- seq + payload
  end

let sampling_fraction entry =
  if entry.seq_lo < 0 || entry.seq_hi - entry.seq_lo <= 0 then None
  else if entry.sampled_packets < 2 then None
  else
    Some
      (float_of_int entry.sampled_bytes
      /. float_of_int (entry.seq_hi - entry.seq_lo))

let rate entry =
  match Rate_estimator.current entry.estimator with
  | Some rate -> rate
  | None -> Rate.bps 0.0

let size t = Flow_key.Table.length t.entries
