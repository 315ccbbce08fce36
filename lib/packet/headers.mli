(** Protocol header constants and the TCP flag byte.

    A {!Packet.t} carries every header field inline; this module holds
    what the header layouts fix: on-wire sizes, ethertypes, protocol
    numbers, the ARP opcode and the TCP flag bits. Field widths follow
    the real protocols (16-bit ports, 32-bit sequence numbers with
    wraparound handled by the collector, etc.). *)

module Tcp_flags : sig
  type t [@@immediate]
  (** The TCP header's flag byte (FIN=0x01 SYN=0x02 RST=0x04 PSH=0x08
      ACK=0x10). *)

  val syn : t
  val syn_ack : t
  val ack : t
  val fin_ack : t
  val to_byte : t -> int
  val of_byte : int -> t
  (** Keeps the five flag bits. *)

  val has_syn : t -> bool
  val has_ack : t -> bool
  val has_fin : t -> bool
  val has_rst : t -> bool
end

module Eth : sig
  val ethertype_ipv4 : int
  val ethertype_arp : int
  val size : int
  (** Header length on the wire: 14 bytes. *)
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
  (** The payload {!Packet.arp} builds a frame from. *)

  val size : int
  (** 28 bytes. *)
end

module Ipv4 : sig
  val protocol_tcp : int
  val protocol_udp : int
  val size : int
  (** 20 bytes (no options). *)
end

module Tcp : sig
  val size : int
  (** 20 bytes (base header, no options). *)

  val max_sack_blocks : int
  (** 3 — what fits alongside padding in a 40-byte option area. *)
end

module Udp : sig
  val size : int
  (** 8 bytes. *)
end
