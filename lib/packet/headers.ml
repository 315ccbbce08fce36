module Tcp_flags = struct
  type t = int

  (* Bit layout follows the TCP header. *)
  let fin = 0x01
  let syn = 0x02
  let rst = 0x04
  let ack = 0x10
  let syn_ack = syn lor ack
  let fin_ack = fin lor ack
  let to_byte t = t
  let of_byte b = b land 0x1F
  let has_syn t = t land syn <> 0
  let has_ack t = t land ack <> 0
  let has_fin t = t land fin <> 0
  let has_rst t = t land rst <> 0
end

module Eth = struct
  let ethertype_ipv4 = 0x0800
  let ethertype_arp = 0x0806
  let size = 14
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
end

module Ipv4 = struct
  let protocol_tcp = 6
  let protocol_udp = 17
  let size = 20
end

module Tcp = struct
  let size = 20
  let max_sack_blocks = 3
end

module Udp = struct
  let size = 8
end
