type l4 = Tcp of Headers.Tcp.t | Udp of Headers.Udp.t
type body = Ipv4 of Headers.Ipv4.t * l4 | Arp of Headers.Arp.t

type t = { eth : Headers.Eth.t; body : body; wire_size : int }

let mtu = 1500
let max_tcp_payload = mtu - Headers.Ipv4.size - Headers.Tcp.size

let tcp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~seq ~ack_seq
    ~flags ?(sack = []) ~payload_len () =
  if payload_len < 0 || payload_len > max_tcp_payload then
    invalid_arg "Packet.tcp: payload_len out of range";
  if List.length sack > Headers.Tcp.max_sack_blocks then
    invalid_arg "Packet.tcp: too many SACK blocks";
  let tcp =
    {
      Headers.Tcp.src_port;
      dst_port;
      seq = seq land 0xFFFF_FFFF;
      ack_seq = ack_seq land 0xFFFF_FFFF;
      flags;
      window = 65535;
      sack =
        List.map
          (fun (a, b) -> (a land 0xFFFF_FFFF, b land 0xFFFF_FFFF))
          sack;
    }
  in
  let total_length =
    Headers.Ipv4.size + Headers.Tcp.header_size tcp + payload_len
  in
  let ip =
    {
      Headers.Ipv4.src = src_ip;
      dst = dst_ip;
      protocol = Headers.Ipv4.protocol_tcp;
      ttl = 64;
      total_length;
    }
  in
  {
    eth = { Headers.Eth.src = src_mac; dst = dst_mac;
            ethertype = Headers.Eth.ethertype_ipv4 };
    body = Ipv4 (ip, Tcp tcp);
    wire_size = Headers.Eth.size + total_length;
  }

let udp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~payload_len () =
  if payload_len < 0 then invalid_arg "Packet.udp: negative payload";
  let l4_length = Headers.Udp.size + payload_len in
  let total_length = Headers.Ipv4.size + l4_length in
  let ip =
    {
      Headers.Ipv4.src = src_ip;
      dst = dst_ip;
      protocol = Headers.Ipv4.protocol_udp;
      ttl = 64;
      total_length;
    }
  in
  let udp = { Headers.Udp.src_port; dst_port; length = l4_length } in
  {
    eth = { Headers.Eth.src = src_mac; dst = dst_mac;
            ethertype = Headers.Eth.ethertype_ipv4 };
    body = Ipv4 (ip, Udp udp);
    wire_size = Headers.Eth.size + total_length;
  }

let arp ~src_mac ~dst_mac payload =
  {
    eth = { Headers.Eth.src = src_mac; dst = dst_mac;
            ethertype = Headers.Eth.ethertype_arp };
    body = Arp payload;
    wire_size = Headers.Eth.size + Headers.Arp.size;
  }

let placeholder =
  let mac = Mac.of_int 0 and ip = Ipv4_addr.of_int 0 in
  arp ~src_mac:mac ~dst_mac:mac
    {
      Headers.Arp.op = Headers.Arp.Request;
      sender_mac = mac;
      sender_ip = ip;
      target_mac = mac;
      target_ip = ip;
    }

let with_dst_mac t mac = { t with eth = { t.eth with Headers.Eth.dst = mac } }

let tcp_headers t =
  match t.body with Ipv4 (ip, Tcp tcp) -> Some (ip, tcp) | _ -> None

let tcp_payload_len t =
  match t.body with
  | Ipv4 (ip, Tcp tcp) ->
      ip.Headers.Ipv4.total_length - Headers.Ipv4.size
      - Headers.Tcp.header_size tcp
  | Ipv4 (_, Udp _) | Arp _ -> 0

let dst_mac t = t.eth.Headers.Eth.dst
let src_mac t = t.eth.Headers.Eth.src

let header_bytes t =
  Headers.Eth.size
  +
  match t.body with
  | Arp _ -> Headers.Arp.size
  | Ipv4 (_, Tcp tcp) -> Headers.Ipv4.size + Headers.Tcp.header_size tcp
  | Ipv4 (_, Udp _) -> Headers.Ipv4.size + Headers.Udp.size

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

let write_eth b (eth : Headers.Eth.t) =
  set_u48 b 0 (Mac.to_int eth.dst);
  set_u48 b 6 (Mac.to_int eth.src);
  set_u16 b 12 eth.ethertype

let write_ipv4 b off (ip : Headers.Ipv4.t) =
  set_u8 b off 0x45 (* version 4, IHL 5 *);
  set_u8 b (off + 1) 0 (* DSCP/ECN *);
  set_u16 b (off + 2) ip.total_length;
  set_u32 b (off + 4) 0 (* id, flags, fragment offset *);
  set_u8 b (off + 8) ip.ttl;
  set_u8 b (off + 9) ip.protocol;
  set_u16 b (off + 10) 0 (* checksum: not modelled *);
  set_u32 b (off + 12) (Ipv4_addr.to_int ip.src);
  set_u32 b (off + 16) (Ipv4_addr.to_int ip.dst)

let write_tcp b off (tcp : Headers.Tcp.t) =
  let header_len = Headers.Tcp.header_size tcp in
  set_u16 b off tcp.src_port;
  set_u16 b (off + 2) tcp.dst_port;
  set_u32 b (off + 4) tcp.seq;
  set_u32 b (off + 8) tcp.ack_seq;
  set_u8 b (off + 12) ((header_len / 4) lsl 4);
  set_u8 b (off + 13) (Headers.Tcp_flags.to_byte tcp.flags);
  set_u16 b (off + 14) tcp.window;
  set_u32 b (off + 16) 0 (* checksum, urgent *);
  match tcp.sack with
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

let write_udp b off (udp : Headers.Udp.t) =
  set_u16 b off udp.src_port;
  set_u16 b (off + 2) udp.dst_port;
  set_u16 b (off + 4) udp.length;
  set_u16 b (off + 6) 0 (* checksum *)

let write_arp b off (a : Headers.Arp.t) =
  set_u16 b off 1 (* htype: Ethernet *);
  set_u16 b (off + 2) 0x0800 (* ptype: IPv4 *);
  set_u8 b (off + 4) 6;
  set_u8 b (off + 5) 4;
  set_u16 b (off + 6) (match a.op with Request -> 1 | Reply -> 2);
  set_u48 b (off + 8) (Mac.to_int a.sender_mac);
  set_u32 b (off + 14) (Ipv4_addr.to_int a.sender_ip);
  set_u48 b (off + 18) (Mac.to_int a.target_mac);
  set_u32 b (off + 24) (Ipv4_addr.to_int a.target_ip)

let to_wire t =
  let b = Bytes.make (header_bytes t) '\000' in
  write_eth b t.eth;
  (match t.body with
  | Arp a -> write_arp b Headers.Eth.size a
  | Ipv4 (ip, l4) -> (
      write_ipv4 b Headers.Eth.size ip;
      let l4_off = Headers.Eth.size + Headers.Ipv4.size in
      match l4 with
      | Tcp tcp -> write_tcp b l4_off tcp
      | Udp udp -> write_udp b l4_off udp));
  b

let parse_ipv4 b ~wire_size =
  let off = Headers.Eth.size in
  if Bytes.length b < off + Headers.Ipv4.size then None
  else if get_u8 b off <> 0x45 then None
  else begin
    let ip =
      {
        Headers.Ipv4.src = Ipv4_addr.of_int (get_u32 b (off + 12));
        dst = Ipv4_addr.of_int (get_u32 b (off + 16));
        protocol = get_u8 b (off + 9);
        ttl = get_u8 b (off + 8);
        total_length = get_u16 b (off + 2);
      }
    in
    let l4_off = off + Headers.Ipv4.size in
    let parse_sack l4_off header_len =
      (* Scan the option area for a SACK (kind 5) option, skipping NOPs. *)
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
    in
    let l4 =
      if ip.protocol = Headers.Ipv4.protocol_tcp then
        if Bytes.length b < l4_off + Headers.Tcp.size then None
        else begin
          let header_len = (get_u8 b (l4_off + 12) lsr 4) * 4 in
          if Bytes.length b < l4_off + header_len then None
          else
            Some
              (Tcp
                 {
                   Headers.Tcp.src_port = get_u16 b l4_off;
                   dst_port = get_u16 b (l4_off + 2);
                   seq = get_u32 b (l4_off + 4);
                   ack_seq = get_u32 b (l4_off + 8);
                   flags = Headers.Tcp_flags.of_byte (get_u8 b (l4_off + 13));
                   window = get_u16 b (l4_off + 14);
                   sack = parse_sack l4_off header_len;
                 })
        end
      else if ip.protocol = Headers.Ipv4.protocol_udp then
        if Bytes.length b < l4_off + Headers.Udp.size then None
        else
          Some
            (Udp
               {
                 Headers.Udp.src_port = get_u16 b l4_off;
                 dst_port = get_u16 b (l4_off + 2);
                 length = get_u16 b (l4_off + 4);
               })
      else None
    in
    match l4 with
    | None -> None
    | Some l4 -> Some (Ipv4 (ip, l4), wire_size)
  end

let parse_arp b =
  let off = Headers.Eth.size in
  if Bytes.length b < off + Headers.Arp.size then None
  else begin
    let op =
      match get_u16 b (off + 6) with
      | 1 -> Some Headers.Arp.Request
      | 2 -> Some Headers.Arp.Reply
      | _ -> None
    in
    match op with
    | None -> None
    | Some op ->
        let a =
          {
            Headers.Arp.op;
            sender_mac = Mac.of_int (get_u48 b (off + 8));
            sender_ip = Ipv4_addr.of_int (get_u32 b (off + 14));
            target_mac = Mac.of_int (get_u48 b (off + 18));
            target_ip = Ipv4_addr.of_int (get_u32 b (off + 24));
          }
        in
        Some (Arp a, Headers.Eth.size + Headers.Arp.size)
  end

let parse b ~wire_size =
  if Bytes.length b < Headers.Eth.size then None
  else begin
    let eth =
      {
        Headers.Eth.dst = Mac.of_int (get_u48 b 0);
        src = Mac.of_int (get_u48 b 6);
        ethertype = get_u16 b 12;
      }
    in
    let body =
      if eth.ethertype = Headers.Eth.ethertype_ipv4 then
        parse_ipv4 b ~wire_size
      else if eth.ethertype = Headers.Eth.ethertype_arp then parse_arp b
      else None
    in
    match body with
    | None -> None
    | Some (body, wire_size) -> Some { eth; body; wire_size }
  end

let same_headers a b =
  Headers.Eth.equal a.eth b.eth && a.wire_size = b.wire_size
  &&
  match (a.body, b.body) with
  | Arp x, Arp y -> Headers.Arp.equal x y
  | Ipv4 (ipa, Tcp ta), Ipv4 (ipb, Tcp tb) ->
      Headers.Ipv4.equal ipa ipb && Headers.Tcp.equal ta tb
  | Ipv4 (ipa, Udp ua), Ipv4 (ipb, Udp ub) ->
      Headers.Ipv4.equal ipa ipb && Headers.Udp.equal ua ub
  | (Arp _ | Ipv4 _), _ -> false

let pp ppf t =
  match t.body with
  | Arp a -> Headers.Arp.pp ppf a
  | Ipv4 (ip, Tcp tcp) ->
      Format.fprintf ppf "%a %a (%dB)" Headers.Ipv4.pp ip Headers.Tcp.pp tcp
        t.wire_size
  | Ipv4 (ip, Udp udp) ->
      Format.fprintf ppf "%a %a (%dB)" Headers.Ipv4.pp ip Headers.Udp.pp udp
        t.wire_size
