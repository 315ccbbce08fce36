(** A transmitting port: queue(s) + serializer + wire.

    One [Txport.t] models one direction of one link: frames are queued,
    serialized at the port rate, and delivered to the peer after the
    propagation delay (store-and-forward: the peer sees the frame when
    its last bit lands).

    A port keeps its frames in one ring in transmit order: frames
    propagating to the peer, the frame on the serializer and, on a
    single-class port, the frames waiting behind it. Each frame is
    written into the ring once and cleared once, when it is delivered
    (or handed off). Hosts and normal switch ports have a single class,
    so they are plain FIFO. A multi-class port (a switch monitor port
    under [Round_robin] arbitration, or with the strict-priority class)
    keeps per-class sub-queues served round-robin, one class per
    mirrored source port, reproducing the round-robin interleaving of
    samples the paper observes (Figures 5–7); the serializer moves the
    frame it picks into the ring. *)

type t

val create :
  Engine.t ->
  rate:Planck_util.Rate.t ->
  prop_delay:Planck_util.Time.t ->
  classes:int ->
  ?priority_class:int ->
  ?handoff:(Planck_util.Time.t -> Planck_packet.Packet.t -> unit) ->
  deliver:(Planck_packet.Packet.t -> unit) ->
  on_depart:(Planck_packet.Packet.t -> unit) ->
  unit ->
  t
(** [deliver] fires at the peer when a frame fully arrives;
    [on_depart] fires locally when the last bit leaves the queue
    (buffer-release point). [priority_class], if given, is served with
    strict priority over the round-robin classes — the CoS queue the
    paper proposes for SYN/FIN samples (§9.2).

    [handoff], if given, makes this a cross-shard port: when the last
    bit leaves the serializer the frame and its arrival time
    ([now + prop_delay]) go to the handoff (a {!Shard} channel) instead
    of the local propagation queue, and [deliver] is never called —
    the destination shard schedules the arrival in its own wheel. *)

val enqueue : t -> cls:int -> Planck_packet.Packet.t -> unit
(** Append to sub-queue [cls] and start the serializer if idle.
    Admission control is the caller's job — this never drops. *)

val held_bytes : t -> int
(** Bytes this port holds between arrival and departure: every queued
    frame plus the frame on the serializer. A switch's buffer pool
    charges a port for exactly these bytes ({!Switch.check_buffer}). *)

val tx_packets : t -> int
val tx_bytes : t -> int
