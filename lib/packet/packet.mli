(** Simulated network frames.

    Inside the simulator a frame is this structured value, the mirrored
    copies a collector reads included. Pcap dumps serialize frames to
    real wire bytes with {!to_wire}; {!parse} reads such bytes back
    into the identical frame.

    Payloads are virtual: only their length travels with the frame (the
    IPv4 [total_length] accounts for it), which keeps multi-gigabyte
    flows cheap to simulate while preserving every header bit the
    collector reads. *)

type l4 = Tcp of Headers.Tcp.t | Udp of Headers.Udp.t

type body = Ipv4 of Headers.Ipv4.t * l4 | Arp of Headers.Arp.t

type t = private {
  eth : Headers.Eth.t;
  body : body;
  wire_size : int;  (** full frame length on the wire, bytes *)
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
    {!max_tcp_payload}. *)

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

val placeholder : t
(** A fixed all-zero ARP frame that is never sent: the sentinel that
    fills empty cells of the simulator's packet queues. *)

val with_dst_mac : t -> Mac.t -> t
(** A copy with the Ethernet destination replaced and every other
    header preserved. Models a switch egress MAC-rewrite rule acting on
    the same logical frame. *)

val tcp_headers : t -> (Headers.Ipv4.t * Headers.Tcp.t) option
(** The IPv4 and TCP headers if this is a TCP segment. *)

val tcp_payload_len : t -> int
(** Virtual TCP payload bytes; 0 for non-TCP frames. *)

val dst_mac : t -> Mac.t
val src_mac : t -> Mac.t

val to_wire : t -> bytes
(** Serialize all headers to wire format (big-endian, real field
    layouts). Virtual payload is not materialized. *)

val parse : bytes -> wire_size:int -> t option
(** Parse bytes produced by {!to_wire} back into a frame with the given
    on-wire length. Returns [None] on malformed or unsupported input. *)

val same_headers : t -> t -> bool
(** Equality of everything {!to_wire} writes, plus [wire_size]. *)
