(** Protocol header records.

    These are the structured forms the simulator manipulates; {!Packet}
    converts them to and from wire bytes for the capture path. Field
    widths follow the real protocols (16-bit ports, 32-bit sequence
    numbers with wraparound handled by the collector, etc.). *)

module Tcp_flags : sig
  type t = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

  val syn : t
  val syn_ack : t
  val ack : t
  val fin_ack : t
  val to_byte : t -> int
  val of_byte : int -> t
end

module Eth : sig
  type t = { src : Mac.t; dst : Mac.t; ethertype : int }

  val ethertype_ipv4 : int
  val ethertype_arp : int
  val size : int
  (** Header length on the wire: 14 bytes. *)

  val equal : t -> t -> bool
end

module Arp : sig
  type op = Request | Reply

  type t = {
    op : op;
    sender_mac : Mac.t;
    sender_ip : Ipv4_addr.t;
    target_mac : Mac.t;
    target_ip : Ipv4_addr.t;
  }

  val size : int
  (** 28 bytes. *)

  val equal : t -> t -> bool
end

module Ipv4 : sig
  type t = {
    src : Ipv4_addr.t;
    dst : Ipv4_addr.t;
    protocol : int;
    ttl : int;
    total_length : int;  (** IP header + L4 header + payload, bytes *)
  }

  val protocol_tcp : int
  val protocol_udp : int
  val size : int
  (** 20 bytes (no options). *)

  val equal : t -> t -> bool
end

module Tcp : sig
  type t = {
    src_port : int;
    dst_port : int;
    seq : int;  (** 32-bit sequence number (byte offset, wraps) *)
    ack_seq : int;
    flags : Tcp_flags.t;
    window : int;
    sack : (int * int) list;
        (** up to 3 SACK blocks, on-wire (wrapped) [start, stop)
            sequence pairs; empty on data segments *)
  }

  val size : int
  (** 20 bytes (base header, no options). *)

  val max_sack_blocks : int
  (** 3 — what fits alongside padding in a 40-byte option area. *)

  val header_size : t -> int
  (** Base header plus the SACK option (padded to 4 bytes). *)

  val equal : t -> t -> bool
end

module Udp : sig
  type t = { src_port : int; dst_port : int; length : int }

  val size : int
  (** 8 bytes. *)

  val equal : t -> t -> bool
end
