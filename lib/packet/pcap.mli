(** Minimal libpcap file writer.

    Supports the vantage-point monitoring application (paper §6.1): the
    collector dumps its recent sample ring to a tcpdump-compatible
    capture. Classic pcap format, microsecond timestamps, Ethernet link
    type, written from scratch. *)

type t

val create : ?snaplen:int -> unit -> t
(** An in-memory capture. [snaplen] defaults to 65535. *)

val add : t -> time:Planck_util.Time.t -> Packet.t -> unit
(** Append one frame, stamped with the simulated capture time. Captured
    bytes are {!Packet.to_wire} output truncated to the snap length; the
    record's original length is the frame's full wire size. *)

val packet_count : t -> int

val contents : t -> string
(** The complete pcap file image (header + records so far). *)
