(** A netmap-style capture endpoint.

    Models the collector server's NIC + netmap ring: frames arriving on
    the wire are stamped and placed in a bounded ring; a poll loop wakes
    at most once per [poll_interval] and drains the whole ring in a
    batch, handing each frame to the consumer in arrival order. The
    consumer receives the very frame the monitor port delivered; the
    collector reads its headers directly, as the real collector reads
    netmap slots in place.

    The consumer's receive timestamp is the drain time, so it includes
    the 0–[poll_interval] batching delay that a real poll-mode capture
    adds. A full ring drops frames, like a real NIC ring. Accepting and
    draining a frame allocates nothing. *)

type t

val create :
  Engine.t ->
  ?ring_capacity:int ->
  ?poll_interval:Planck_util.Time.t ->
  ?label:string ->
  consumer:
    (arrival:Planck_util.Time.t ->
    rx:Planck_util.Time.t ->
    Planck_packet.Packet.t ->
    unit) ->
  unit ->
  t
(** Defaults: 2048-slot ring, 25 µs poll interval. The consumer gets
    each frame with its [arrival] (last bit on the wire) and [rx] (when
    the poll loop saw it). [label] tags this sink's telemetry counters
    ([sink.frames], [sink.ring_drops]) in
    {!Planck_telemetry.Metrics.default}; collectors pass their switch
    id. Raises [Invalid_argument] if [ring_capacity <= 0]. *)

val ingress : t -> Planck_packet.Packet.t -> unit
(** Frame fully arrived; hand this to the peer's transmit side. *)

val frames_seen : t -> int
(** Frames accepted into the ring since creation. *)

val ring_drops : t -> int
(** Frames refused because the ring was full. *)
