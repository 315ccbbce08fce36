module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Seq32 = Planck_packet.Seq32

type t = {
  min_gap : Time.t;
  max_burst : Time.t;
  max_rate : Rate.t option;
  mutable anchor_seq : int; (* full-width; -1 = no sample yet *)
  mutable anchor_time : Time.t;
  mutable last_seq : int;
  mutable last_time : Time.t;
  mutable estimate : Rate.t option;
  mutable estimate_at : Time.t option;
  mutable samples : int;
  mutable out_of_order : int;
}

let create ?(min_gap = Time.us 200) ?(max_burst = Time.us 700) ?max_rate () =
  {
    min_gap;
    max_burst;
    max_rate;
    anchor_seq = -1;
    anchor_time = 0;
    last_seq = 0;
    last_time = 0;
    estimate = None;
    estimate_at = None;
    samples = 0;
    out_of_order = 0;
  }

let emit t ~seq ~time =
  if time > t.anchor_time && seq > t.anchor_seq then begin
    let raw = Rate.of_bytes_per (seq - t.anchor_seq) (time - t.anchor_time) in
    let rate =
      match t.max_rate with None -> raw | Some cap -> min raw cap
    in
    t.estimate <- Some rate;
    t.estimate_at <- Some time;
    Some rate
  end
  else None

let update t ~time ~seq32 =
  t.samples <- t.samples + 1;
  if t.anchor_seq < 0 then begin
    (* First sample anchors the first burst. *)
    t.anchor_seq <- seq32;
    t.anchor_time <- time;
    t.last_seq <- seq32;
    t.last_time <- time;
    None
  end
  else begin
    let seq = Seq32.unwrap ~base:t.last_seq seq32 in
    if seq < t.last_seq then begin
      (* Reordering or retransmission: unusable for estimation. *)
      t.out_of_order <- t.out_of_order + 1;
      None
    end
    else begin
      let result =
        if time - t.last_time >= t.min_gap then begin
          (* Gap: the previous burst ended; estimate across it and
             re-anchor at this new burst. *)
          let rate = emit t ~seq ~time in
          t.anchor_seq <- seq;
          t.anchor_time <- time;
          rate
        end
        else if time - t.anchor_time >= t.max_burst then begin
          (* Steady state: force regular estimates. *)
          let rate = emit t ~seq ~time in
          t.anchor_seq <- seq;
          t.anchor_time <- time;
          rate
        end
        else None
      in
      t.last_seq <- seq;
      t.last_time <- time;
      result
    end
  end

let current t = t.estimate
let samples t = t.samples
let out_of_order t = t.out_of_order

module Rolling = struct
  type t = {
    window : Time.t;
    points : (Time.t * int) Queue.t; (* (time, full seq) *)
    mutable last_seq : int;
    mutable have_sample : bool;
    mutable estimate : Rate.t option;
  }

  let create ?(window = Time.us 200) () =
    {
      window;
      points = Queue.create ();
      last_seq = 0;
      have_sample = false;
      estimate = None;
    }

  let update t ~time ~seq32 =
    let seq =
      if t.have_sample then Seq32.unwrap ~base:t.last_seq seq32 else seq32
    in
    if t.have_sample && seq < t.last_seq then t.estimate
    else begin
      t.have_sample <- true;
      t.last_seq <- seq;
      Queue.push (time, seq) t.points;
      while
        (not (Queue.is_empty t.points))
        && fst (Queue.peek t.points) < time - t.window
      do
        ignore (Queue.pop t.points)
      done;
      let _, oldest_seq = Queue.peek t.points in
      (* Bytes that entered the window, averaged over the whole window:
         a quiet window reads ~0, a window holding one burst reads the
         burst spread over it — the jitter of Figure 10a. *)
      t.estimate <- Some (Rate.of_bytes_per (seq - oldest_seq) t.window);
      t.estimate
    end

end
