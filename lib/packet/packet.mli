(** Simulated network frames.

    A frame is one heap block whose fields are immediates: the TCP case
    is 13 fields (14 words with its header), the MACs, IPs, ttl, ports,
    sequence numbers, flag byte, window, SACK blocks and on-wire size
    side by side. Every switch buffer and mirror queue holds frames, so
    this block is what each buffered or mirrored frame costs. Readers
    take fields by pattern matching ([match p with Packet.Tcp { seq; _ }
    -> ...]); only the constructors below build frames.

    Whatever a header carries that the frame does not store follows from
    what it does: the ethertype and IP protocol from the constructor,
    the IPv4 total length and UDP length from [wire_size], the TCP data
    offset from the SACK blocks. Pcap dumps serialize frames to real
    wire bytes with {!to_wire}; {!parse} reads such bytes back into the
    identical frame.

    Payloads are virtual: only their length travels with the frame (the
    IPv4 total length accounts for it), which keeps multi-gigabyte flows
    cheap to simulate while preserving every header bit the collector
    reads. *)

type t = private
  | Tcp of {
      src_mac : Mac.t;
      dst_mac : Mac.t;
      src_ip : Ipv4_addr.t;
      dst_ip : Ipv4_addr.t;
      ttl : int;
      src_port : int;
      dst_port : int;
      seq : int;  (** 32-bit sequence number (byte offset, wraps) *)
      ack_seq : int;
      flags : Headers.Tcp_flags.t;
      window : int;
      sack : (int * int) list;
          (** up to 3 SACK blocks, on-wire (wrapped) [start, stop)
              sequence pairs; empty on data segments *)
      wire_size : int;  (** full frame length on the wire, bytes *)
    }
  | Udp of {
      src_mac : Mac.t;
      dst_mac : Mac.t;
      src_ip : Ipv4_addr.t;
      dst_ip : Ipv4_addr.t;
      ttl : int;
      src_port : int;
      dst_port : int;
      wire_size : int;
    }
  | Arp of {
      src_mac : Mac.t;
      dst_mac : Mac.t;
      op : Headers.Arp.op;
      sender_mac : Mac.t;
      sender_ip : Ipv4_addr.t;
      target_mac : Mac.t;
      target_ip : Ipv4_addr.t;
    }

val mtu : int
(** IP MTU used throughout: 1500 bytes. *)

val max_tcp_payload : int
(** MTU minus IPv4 and TCP headers: 1460 bytes. *)

val tcp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ipv4_addr.t ->
  dst_ip:Ipv4_addr.t ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack_seq:int ->
  flags:Headers.Tcp_flags.t ->
  ?sack:(int * int) list ->
  payload_len:int ->
  unit ->
  t
(** A TCP segment carrying [payload_len] virtual payload bytes.
    Raises [Invalid_argument] if [payload_len] is negative or exceeds
    {!max_tcp_payload}, or if [sack] has more than
    {!Headers.Tcp.max_sack_blocks} blocks. *)

val udp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ipv4_addr.t ->
  dst_ip:Ipv4_addr.t ->
  src_port:int ->
  dst_port:int ->
  payload_len:int ->
  unit ->
  t

val arp : src_mac:Mac.t -> dst_mac:Mac.t -> Headers.Arp.t -> t
(** An ARP frame ({!Headers.Arp.size} bytes after the Ethernet header)
    carrying the given payload's fields. *)

val placeholder : t
(** A fixed all-zero ARP frame that is never sent: the sentinel that
    fills empty cells of the simulator's packet queues. *)

val with_dst_mac : t -> Mac.t -> t
(** A copy with the Ethernet destination replaced and every other
    header preserved. Models a switch egress MAC-rewrite rule acting on
    the same logical frame. *)

val wire_size : t -> int
(** Full frame length on the wire, bytes. *)

val tcp_payload_len : t -> int
(** Virtual TCP payload bytes; 0 for non-TCP frames. *)

val dst_mac : t -> Mac.t
val src_mac : t -> Mac.t

val to_wire : t -> bytes
(** Serialize all headers to wire format (big-endian, real field
    layouts). Virtual payload is not materialized. *)

val parse : bytes -> wire_size:int -> t option
(** Parse bytes produced by {!to_wire} back into a frame with the given
    on-wire length (an ARP frame's is always fixed). Returns [None] on
    malformed or unsupported input, and on IPv4 lengths the frame cannot
    hold: a total length other than [wire_size] minus the Ethernet
    header, or a UDP length other than the IPv4 payload. *)

val same_headers : t -> t -> bool
(** Equality of everything {!to_wire} writes, plus the on-wire size. *)
