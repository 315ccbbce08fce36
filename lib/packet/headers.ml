module Tcp_flags = struct
  type t = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

  let none = { syn = false; ack = false; fin = false; rst = false; psh = false }
  let syn = { none with syn = true }
  let syn_ack = { none with syn = true; ack = true }
  let ack = { none with ack = true }
  let fin_ack = { none with fin = true; ack = true }

  (* Bit layout follows the TCP header: FIN=0x01 SYN=0x02 RST=0x04
     PSH=0x08 ACK=0x10. *)
  let to_byte t =
    (if t.fin then 0x01 else 0)
    lor (if t.syn then 0x02 else 0)
    lor (if t.rst then 0x04 else 0)
    lor (if t.psh then 0x08 else 0)
    lor if t.ack then 0x10 else 0

  let of_byte b =
    {
      fin = b land 0x01 <> 0;
      syn = b land 0x02 <> 0;
      rst = b land 0x04 <> 0;
      psh = b land 0x08 <> 0;
      ack = b land 0x10 <> 0;
    }

  let equal (a : t) (b : t) = Int.equal (to_byte a) (to_byte b)

end

module Eth = struct
  type t = { src : Mac.t; dst : Mac.t; ethertype : int }

  let ethertype_ipv4 = 0x0800
  let ethertype_arp = 0x0806
  let size = 14

  let equal (a : t) (b : t) =
    Mac.equal a.src b.src && Mac.equal a.dst b.dst
    && Int.equal a.ethertype b.ethertype

end

module Arp = struct
  type op = Request | Reply

  type t = {
    op : op;
    sender_mac : Mac.t;
    sender_ip : Ipv4_addr.t;
    target_mac : Mac.t;
    target_ip : Ipv4_addr.t;
  }

  let size = 28

  let equal_op a b =
    match (a, b) with
    | Request, Request | Reply, Reply -> true
    | (Request | Reply), _ -> false

  let equal (a : t) (b : t) =
    equal_op a.op b.op
    && Mac.equal a.sender_mac b.sender_mac
    && Ipv4_addr.equal a.sender_ip b.sender_ip
    && Mac.equal a.target_mac b.target_mac
    && Ipv4_addr.equal a.target_ip b.target_ip

end

module Ipv4 = struct
  type t = {
    src : Ipv4_addr.t;
    dst : Ipv4_addr.t;
    protocol : int;
    ttl : int;
    total_length : int;
  }

  let protocol_tcp = 6
  let protocol_udp = 17
  let size = 20

  let equal (a : t) (b : t) =
    Ipv4_addr.equal a.src b.src
    && Ipv4_addr.equal a.dst b.dst
    && Int.equal a.protocol b.protocol
    && Int.equal a.ttl b.ttl
    && Int.equal a.total_length b.total_length

end

module Tcp = struct
  type t = {
    src_port : int;
    dst_port : int;
    seq : int;
    ack_seq : int;
    flags : Tcp_flags.t;
    window : int;
    sack : (int * int) list;
  }

  let size = 20
  let max_sack_blocks = 3

  (* SACK option: kind (1) + length (1) + 8 bytes per block, padded to a
     multiple of 4 with NOPs. *)
  let header_size t =
    match t.sack with
    | [] -> size
    | blocks ->
        let option_bytes = 2 + (8 * List.length blocks) in
        size + ((option_bytes + 3) / 4 * 4)

  let equal_sack_block (a1, a2) (b1, b2) = Int.equal a1 b1 && Int.equal a2 b2

  let equal (a : t) (b : t) =
    Int.equal a.src_port b.src_port
    && Int.equal a.dst_port b.dst_port
    && Int.equal a.seq b.seq
    && Int.equal a.ack_seq b.ack_seq
    && Tcp_flags.equal a.flags b.flags
    && Int.equal a.window b.window
    && List.equal equal_sack_block a.sack b.sack

end

module Udp = struct
  type t = { src_port : int; dst_port : int; length : int }

  let size = 8

  let equal (a : t) (b : t) =
    Int.equal a.src_port b.src_port
    && Int.equal a.dst_port b.dst_port
    && Int.equal a.length b.length

end
