type t =
  | Tcp of {
      src_mac : Mac.t;
      dst_mac : Mac.t;
      src_ip : Ipv4_addr.t;
      dst_ip : Ipv4_addr.t;
      ttl : int;
      src_port : int;
      dst_port : int;
      seq : int;
      ack_seq : int;
      flags : Headers.Tcp_flags.t;
      window : int;
      sack : (int * int) list;
      wire_size : int;
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

let mtu = 1500
let max_tcp_payload = mtu - Headers.Ipv4.size - Headers.Tcp.size
let default_ttl = 64
let default_window = 65535
let arp_wire_size = Headers.Eth.size + Headers.Arp.size

(* Base header plus the SACK option: kind (1) + length (1) + 8 bytes per
   block, padded to a multiple of 4 with NOPs. *)
let tcp_header_size = function
  | [] -> Headers.Tcp.size
  | blocks ->
      let option_bytes = 2 + (8 * List.length blocks) in
      Headers.Tcp.size + ((option_bytes + 3) / 4 * 4)

let tcp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~seq ~ack_seq
    ~flags ?(sack = []) ~payload_len () =
  if payload_len < 0 || payload_len > max_tcp_payload then
    invalid_arg "Packet.tcp: payload_len out of range";
  if List.length sack > Headers.Tcp.max_sack_blocks then
    invalid_arg "Packet.tcp: too many SACK blocks";
  let sack =
    List.map (fun (a, b) -> (a land 0xFFFF_FFFF, b land 0xFFFF_FFFF)) sack
  in
  Tcp
    {
      src_mac;
      dst_mac;
      src_ip;
      dst_ip;
      ttl = default_ttl;
      src_port;
      dst_port;
      seq = seq land 0xFFFF_FFFF;
      ack_seq = ack_seq land 0xFFFF_FFFF;
      flags;
      window = default_window;
      sack;
      wire_size =
        Headers.Eth.size + Headers.Ipv4.size + tcp_header_size sack
        + payload_len;
    }

let udp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~payload_len () =
  if payload_len < 0 then invalid_arg "Packet.udp: negative payload";
  Udp
    {
      src_mac;
      dst_mac;
      src_ip;
      dst_ip;
      ttl = default_ttl;
      src_port;
      dst_port;
      wire_size =
        Headers.Eth.size + Headers.Ipv4.size + Headers.Udp.size + payload_len;
    }

let arp ~src_mac ~dst_mac (a : Headers.Arp.t) =
  Arp
    {
      src_mac;
      dst_mac;
      op = a.op;
      sender_mac = a.sender_mac;
      sender_ip = a.sender_ip;
      target_mac = a.target_mac;
      target_ip = a.target_ip;
    }

let placeholder =
  let mac = Mac.of_int 0 and ip = Ipv4_addr.of_int 0 in
  Arp
    {
      src_mac = mac;
      dst_mac = mac;
      op = Headers.Arp.Request;
      sender_mac = mac;
      sender_ip = ip;
      target_mac = mac;
      target_ip = ip;
    }

let with_dst_mac t dst_mac =
  match t with
  | Tcp r -> Tcp { r with dst_mac }
  | Udp r -> Udp { r with dst_mac }
  | Arp r -> Arp { r with dst_mac }

let wire_size = function
  | Tcp { wire_size; _ } | Udp { wire_size; _ } -> wire_size
  | Arp _ -> arp_wire_size

let tcp_payload_len = function
  | Tcp { sack; wire_size; _ } ->
      wire_size - Headers.Eth.size - Headers.Ipv4.size - tcp_header_size sack
  | Udp _ | Arp _ -> 0

let dst_mac = function
  | Tcp { dst_mac; _ } | Udp { dst_mac; _ } | Arp { dst_mac; _ } -> dst_mac

let src_mac = function
  | Tcp { src_mac; _ } | Udp { src_mac; _ } | Arp { src_mac; _ } -> src_mac

let header_bytes t =
  Headers.Eth.size
  +
  match t with
  | Arp _ -> Headers.Arp.size
  | Tcp { sack; _ } -> Headers.Ipv4.size + tcp_header_size sack
  | Udp _ -> Headers.Ipv4.size + Headers.Udp.size

(* Big-endian byte-level writers/readers. *)

let set_u8 b off v = Bytes.set_uint8 b off (v land 0xFF)
let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

let set_u32 b off v =
  set_u16 b off (v lsr 16);
  set_u16 b (off + 2) v

let set_u48 b off v =
  set_u16 b off (v lsr 32);
  set_u32 b (off + 2) v

let get_u8 = Bytes.get_uint8
let get_u16 = Bytes.get_uint16_be
let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)
let get_u48 b off = (get_u16 b off lsl 32) lor get_u32 b (off + 2)

let write_eth b ~src_mac ~dst_mac ~ethertype =
  set_u48 b 0 (Mac.to_int dst_mac);
  set_u48 b 6 (Mac.to_int src_mac);
  set_u16 b 12 ethertype

let write_ipv4 b ~src_ip ~dst_ip ~protocol ~ttl ~wire_size =
  let off = Headers.Eth.size in
  set_u8 b off 0x45 (* version 4, IHL 5 *);
  set_u8 b (off + 1) 0 (* DSCP/ECN *);
  set_u16 b (off + 2) (wire_size - Headers.Eth.size) (* total length *);
  set_u32 b (off + 4) 0 (* id, flags, fragment offset *);
  set_u8 b (off + 8) ttl;
  set_u8 b (off + 9) protocol;
  set_u16 b (off + 10) 0 (* checksum: not modelled *);
  set_u32 b (off + 12) (Ipv4_addr.to_int src_ip);
  set_u32 b (off + 16) (Ipv4_addr.to_int dst_ip)

let l4_off = Headers.Eth.size + Headers.Ipv4.size

let write_tcp b ~src_port ~dst_port ~seq ~ack_seq ~flags ~window ~sack =
  let off = l4_off in
  let header_len = tcp_header_size sack in
  set_u16 b off src_port;
  set_u16 b (off + 2) dst_port;
  set_u32 b (off + 4) seq;
  set_u32 b (off + 8) ack_seq;
  set_u8 b (off + 12) ((header_len / 4) lsl 4);
  set_u8 b (off + 13) (Headers.Tcp_flags.to_byte flags);
  set_u16 b (off + 14) window;
  set_u32 b (off + 16) 0 (* checksum, urgent *);
  match sack with
  | [] -> ()
  | blocks ->
      (* NOP padding first, then kind=5 SACK option. *)
      let option_bytes = 2 + (8 * List.length blocks) in
      let pad = header_len - Headers.Tcp.size - option_bytes in
      for i = 0 to pad - 1 do
        set_u8 b (off + 20 + i) 1 (* NOP *)
      done;
      let opt = off + 20 + pad in
      set_u8 b opt 5;
      set_u8 b (opt + 1) option_bytes;
      List.iteri
        (fun i (start, stop) ->
          set_u32 b (opt + 2 + (8 * i)) start;
          set_u32 b (opt + 6 + (8 * i)) stop)
        blocks

let write_udp b ~src_port ~dst_port ~wire_size =
  let off = l4_off in
  set_u16 b off src_port;
  set_u16 b (off + 2) dst_port;
  set_u16 b (off + 4) (wire_size - l4_off) (* length *);
  set_u16 b (off + 6) 0 (* checksum *)

let write_arp b ~op ~sender_mac ~sender_ip ~target_mac ~target_ip =
  let off = Headers.Eth.size in
  set_u16 b off 1 (* htype: Ethernet *);
  set_u16 b (off + 2) 0x0800 (* ptype: IPv4 *);
  set_u8 b (off + 4) 6;
  set_u8 b (off + 5) 4;
  set_u16 b (off + 6)
    (match op with Headers.Arp.Request -> 1 | Headers.Arp.Reply -> 2);
  set_u48 b (off + 8) (Mac.to_int sender_mac);
  set_u32 b (off + 14) (Ipv4_addr.to_int sender_ip);
  set_u48 b (off + 18) (Mac.to_int target_mac);
  set_u32 b (off + 24) (Ipv4_addr.to_int target_ip)

let to_wire t =
  let b = Bytes.make (header_bytes t) '\000' in
  (match t with
  | Tcp r ->
      write_eth b ~src_mac:r.src_mac ~dst_mac:r.dst_mac
        ~ethertype:Headers.Eth.ethertype_ipv4;
      write_ipv4 b ~src_ip:r.src_ip ~dst_ip:r.dst_ip
        ~protocol:Headers.Ipv4.protocol_tcp ~ttl:r.ttl ~wire_size:r.wire_size;
      write_tcp b ~src_port:r.src_port ~dst_port:r.dst_port ~seq:r.seq
        ~ack_seq:r.ack_seq ~flags:r.flags ~window:r.window ~sack:r.sack
  | Udp r ->
      write_eth b ~src_mac:r.src_mac ~dst_mac:r.dst_mac
        ~ethertype:Headers.Eth.ethertype_ipv4;
      write_ipv4 b ~src_ip:r.src_ip ~dst_ip:r.dst_ip
        ~protocol:Headers.Ipv4.protocol_udp ~ttl:r.ttl ~wire_size:r.wire_size;
      write_udp b ~src_port:r.src_port ~dst_port:r.dst_port
        ~wire_size:r.wire_size
  | Arp r ->
      write_eth b ~src_mac:r.src_mac ~dst_mac:r.dst_mac
        ~ethertype:Headers.Eth.ethertype_arp;
      write_arp b ~op:r.op ~sender_mac:r.sender_mac ~sender_ip:r.sender_ip
        ~target_mac:r.target_mac ~target_ip:r.target_ip);
  b

(* Scan the TCP option area for a SACK (kind 5) option, skipping NOPs. *)
let parse_sack b header_len =
  let stop = l4_off + header_len in
  let rec scan off =
    if off >= stop || off >= Bytes.length b then []
    else
      match get_u8 b off with
      | 0 (* EOL *) -> []
      | 1 (* NOP *) -> scan (off + 1)
      | 5 ->
          let len = get_u8 b (off + 1) in
          let blocks = (len - 2) / 8 in
          List.init blocks (fun i ->
              (get_u32 b (off + 2 + (8 * i)), get_u32 b (off + 6 + (8 * i))))
      | _ ->
          let len = get_u8 b (off + 1) in
          if len < 2 then [] else scan (off + len)
  in
  scan (l4_off + Headers.Tcp.size)

let parse_ipv4 b ~src_mac ~dst_mac ~wire_size =
  let off = Headers.Eth.size in
  if Bytes.length b < l4_off then None
  else if get_u8 b off <> 0x45 then None
  else if get_u16 b (off + 2) <> wire_size - Headers.Eth.size then None
  else begin
    let src_ip = Ipv4_addr.of_int (get_u32 b (off + 12))
    and dst_ip = Ipv4_addr.of_int (get_u32 b (off + 16))
    and protocol = get_u8 b (off + 9)
    and ttl = get_u8 b (off + 8) in
    if protocol = Headers.Ipv4.protocol_tcp then
      if Bytes.length b < l4_off + Headers.Tcp.size then None
      else begin
        let header_len = (get_u8 b (l4_off + 12) lsr 4) * 4 in
        if Bytes.length b < l4_off + header_len then None
        else
          Some
            (Tcp
               {
                 src_mac;
                 dst_mac;
                 src_ip;
                 dst_ip;
                 ttl;
                 src_port = get_u16 b l4_off;
                 dst_port = get_u16 b (l4_off + 2);
                 seq = get_u32 b (l4_off + 4);
                 ack_seq = get_u32 b (l4_off + 8);
                 flags = Headers.Tcp_flags.of_byte (get_u8 b (l4_off + 13));
                 window = get_u16 b (l4_off + 14);
                 sack = parse_sack b header_len;
                 wire_size;
               })
      end
    else if protocol = Headers.Ipv4.protocol_udp then
      if Bytes.length b < l4_off + Headers.Udp.size then None
      else if get_u16 b (l4_off + 4) <> wire_size - l4_off then None
      else
        Some
          (Udp
             {
               src_mac;
               dst_mac;
               src_ip;
               dst_ip;
               ttl;
               src_port = get_u16 b l4_off;
               dst_port = get_u16 b (l4_off + 2);
               wire_size;
             })
    else None
  end

let parse_arp b ~src_mac ~dst_mac =
  let off = Headers.Eth.size in
  if Bytes.length b < arp_wire_size then None
  else
    let op =
      match get_u16 b (off + 6) with
      | 1 -> Some Headers.Arp.Request
      | 2 -> Some Headers.Arp.Reply
      | _ -> None
    in
    match op with
    | None -> None
    | Some op ->
        Some
          (Arp
             {
               src_mac;
               dst_mac;
               op;
               sender_mac = Mac.of_int (get_u48 b (off + 8));
               sender_ip = Ipv4_addr.of_int (get_u32 b (off + 14));
               target_mac = Mac.of_int (get_u48 b (off + 18));
               target_ip = Ipv4_addr.of_int (get_u32 b (off + 24));
             })

let parse b ~wire_size =
  if Bytes.length b < Headers.Eth.size then None
  else begin
    let dst_mac = Mac.of_int (get_u48 b 0)
    and src_mac = Mac.of_int (get_u48 b 6)
    and ethertype = get_u16 b 12 in
    if ethertype = Headers.Eth.ethertype_ipv4 then
      parse_ipv4 b ~src_mac ~dst_mac ~wire_size
    else if ethertype = Headers.Eth.ethertype_arp then
      parse_arp b ~src_mac ~dst_mac
    else None
  end

let equal_sack_block (a1, a2) (b1, b2) = Int.equal a1 b1 && Int.equal a2 b2

let equal_arp_op (a : Headers.Arp.op) (b : Headers.Arp.op) =
  match (a, b) with
  | Request, Request | Reply, Reply -> true
  | (Request | Reply), _ -> false

let same_headers a b =
  match (a, b) with
  | Tcp x, Tcp y ->
      Mac.equal x.src_mac y.src_mac
      && Mac.equal x.dst_mac y.dst_mac
      && Ipv4_addr.equal x.src_ip y.src_ip
      && Ipv4_addr.equal x.dst_ip y.dst_ip
      && Int.equal x.ttl y.ttl
      && Int.equal x.src_port y.src_port
      && Int.equal x.dst_port y.dst_port
      && Int.equal x.seq y.seq
      && Int.equal x.ack_seq y.ack_seq
      && Int.equal
           (Headers.Tcp_flags.to_byte x.flags)
           (Headers.Tcp_flags.to_byte y.flags)
      && Int.equal x.window y.window
      && List.equal equal_sack_block x.sack y.sack
      && Int.equal x.wire_size y.wire_size
  | Udp x, Udp y ->
      Mac.equal x.src_mac y.src_mac
      && Mac.equal x.dst_mac y.dst_mac
      && Ipv4_addr.equal x.src_ip y.src_ip
      && Ipv4_addr.equal x.dst_ip y.dst_ip
      && Int.equal x.ttl y.ttl
      && Int.equal x.src_port y.src_port
      && Int.equal x.dst_port y.dst_port
      && Int.equal x.wire_size y.wire_size
  | Arp x, Arp y ->
      Mac.equal x.src_mac y.src_mac
      && Mac.equal x.dst_mac y.dst_mac
      && equal_arp_op x.op y.op
      && Mac.equal x.sender_mac y.sender_mac
      && Ipv4_addr.equal x.sender_ip y.sender_ip
      && Mac.equal x.target_mac y.target_mac
      && Ipv4_addr.equal x.target_ip y.target_ip
  | (Tcp _ | Udp _ | Arp _), _ -> false
