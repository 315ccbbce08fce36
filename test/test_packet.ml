(* Unit and property tests for Planck_packet: addresses, header wire
   formats, flow keys, 32-bit sequence arithmetic and pcap output. *)

module Mac = Planck_packet.Mac
module Ip = Planck_packet.Ipv4_addr
module H = Planck_packet.Headers
module P = Planck_packet.Packet
module FK = Planck_packet.Flow_key
module Seq32 = Planck_packet.Seq32
module Pcap = Planck_packet.Pcap

(* ---- MAC ---- *)

let mac_string_roundtrip () =
  let s = "02:00:ab:03:00:2a" in
  Alcotest.(check string) "roundtrip" s (Mac.to_string (Mac.of_string s));
  Alcotest.(check string) "broadcast" "ff:ff:ff:ff:ff:ff"
    (Mac.to_string Mac.broadcast)

let mac_bad_strings () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("reject " ^ s) (Invalid_argument "")
        (fun () ->
          try ignore (Mac.of_string s)
          with Invalid_argument _ -> raise (Invalid_argument "")))
    [ "zz:00:00:00:00:00"; "02:00:00:00:00"; "0200ab03002a"; "1:2:3:4:5:300" ]

let mac_shadow () =
  let base = Mac.host 7 in
  let shadow = Mac.shadow base ~alt:3 in
  Alcotest.(check bool) "differs" false (Mac.equal base shadow);
  let recovered, alt = Mac.base_of_shadow shadow in
  Alcotest.(check bool) "base recovered" true (Mac.equal base recovered);
  Alcotest.(check int) "alt recovered" 3 alt;
  Alcotest.(check bool) "alt 0 is identity" true
    (Mac.equal base (Mac.shadow base ~alt:0))

let mac_shadow_qcheck =
  QCheck.Test.make ~name:"shadow/base_of_shadow roundtrip" ~count:200
    QCheck.(pair (int_range 0 65535) (int_range 0 255))
    (fun (host, alt) ->
      let base = Mac.host host in
      let b, a = Mac.base_of_shadow (Mac.shadow base ~alt) in
      Mac.equal b base && a = alt)

(* ---- IPv4 ---- *)

let ipv4_roundtrip () =
  Alcotest.(check string) "roundtrip" "10.0.1.200"
    (Ip.to_string (Ip.of_string "10.0.1.200"));
  Alcotest.(check (option int)) "host_id" (Some 456) (Ip.host_id (Ip.host 456));
  Alcotest.(check (option int)) "foreign has no id" None
    (Ip.host_id (Ip.of_string "192.168.1.1"))

(* ---- Flags ---- *)

let flags_roundtrip_qcheck =
  QCheck.Test.make ~name:"tcp flags byte roundtrip" ~count:64
    QCheck.(int_range 0 0x1F)
    (fun b ->
      H.Tcp_flags.to_byte (H.Tcp_flags.of_byte b) = b)

(* ---- Packet wire roundtrips ---- *)

let sack_gen =
  QCheck.Gen.(
    list_size (int_range 0 3)
      (map
         (fun (a, len) -> (a, a + 1 + len))
         (pair (int_range 0 0xFFFF_0000) (int_range 0 60_000))))

let tcp_packet_gen =
  QCheck.Gen.(
    map
      (fun (((src, dst), (sp, dp)), ((seq, ack), (payload, (flags, sack)))) ->
        P.tcp ~src_mac:(Mac.host src) ~dst_mac:(Mac.host dst)
          ~src_ip:(Ip.host src) ~dst_ip:(Ip.host dst) ~src_port:sp
          ~dst_port:dp ~seq ~ack_seq:ack
          ~flags:(H.Tcp_flags.of_byte flags)
          ~sack ~payload_len:payload ())
      (pair
         (pair (pair (int_range 0 999) (int_range 0 999))
            (pair (int_range 1 65535) (int_range 1 65535)))
         (pair
            (pair (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))
            (pair (int_range 0 1460) (pair (int_range 0 0x1F) sack_gen)))))

let tcp_wire_roundtrip_qcheck =
  QCheck.Test.make ~name:"tcp wire serialize/parse roundtrip" ~count:500
    (QCheck.make tcp_packet_gen) (fun p ->
      match P.parse (P.to_wire p) ~wire_size:p.P.wire_size with
      | None -> false
      | Some q -> P.same_headers p q && P.tcp_payload_len q = P.tcp_payload_len p)

(* TCP, UDP and ARP frames with arbitrary addresses and ports. *)
let any_packet_gen =
  QCheck.Gen.(
    oneof
      [
        tcp_packet_gen;
        map
          (fun ((src, dst), (sp, dp)) ->
            P.udp ~src_mac:(Mac.host src) ~dst_mac:(Mac.host dst)
              ~src_ip:(Ip.of_int src) ~dst_ip:(Ip.of_int dst) ~src_port:sp
              ~dst_port:dp ~payload_len:100 ())
          (pair
             (pair (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))
             (pair (int_range 0 65535) (int_range 0 65535)));
        map
          (fun (src, dst) ->
            P.arp ~src_mac:(Mac.host src) ~dst_mac:(Mac.host dst)
              {
                H.Arp.op = H.Arp.Request;
                sender_mac = Mac.host src;
                sender_ip = Ip.host src;
                target_mac = Mac.host dst;
                target_ip = Ip.host dst;
              })
          (pair (int_range 0 999) (int_range 0 999));
      ])

let hash_packet_matches_key_qcheck =
  QCheck.Test.make ~name:"hash_packet equals the flow key's hash" ~count:500
    (QCheck.make any_packet_gen) (fun p ->
      match FK.of_packet p with
      | Some k -> FK.hash_packet p = FK.hash k
      | None -> FK.hash_packet p = 0)

let udp_wire_roundtrip () =
  let p =
    P.udp ~src_mac:(Mac.host 1) ~dst_mac:(Mac.host 2) ~src_ip:(Ip.host 1)
      ~dst_ip:(Ip.host 2) ~src_port:53 ~dst_port:5353 ~payload_len:100 ()
  in
  match P.parse (P.to_wire p) ~wire_size:p.P.wire_size with
  | None -> Alcotest.fail "parse failed"
  | Some q -> Alcotest.(check bool) "same" true (P.same_headers p q)

let arp_wire_roundtrip () =
  let p =
    P.arp ~src_mac:(Mac.host 1) ~dst_mac:(Mac.host 2)
      {
        H.Arp.op = H.Arp.Request;
        sender_mac = Mac.host 1;
        sender_ip = Ip.host 1;
        target_mac = Mac.host 2;
        target_ip = Ip.host 2;
      }
  in
  match P.parse (P.to_wire p) ~wire_size:p.P.wire_size with
  | None -> Alcotest.fail "parse failed"
  | Some q -> Alcotest.(check bool) "same" true (P.same_headers p q)

let parse_garbage () =
  Alcotest.(check (option reject)) "short buffer" None
    (P.parse (Bytes.create 5) ~wire_size:64);
  let junk = Bytes.make 64 '\xFF' in
  Alcotest.(check bool) "junk ethertype rejected" true
    (P.parse junk ~wire_size:64 = None)

let packet_sizes () =
  let data =
    P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1) ~src_ip:(Ip.host 0)
      ~dst_ip:(Ip.host 1) ~src_port:1 ~dst_port:2 ~seq:0 ~ack_seq:0
      ~flags:H.Tcp_flags.ack ~payload_len:1460 ()
  in
  Alcotest.(check int) "full frame" 1514 data.P.wire_size;
  Alcotest.(check int) "payload" 1460 (P.tcp_payload_len data);
  Alcotest.(check int) "headers on wire" 54 (Bytes.length (P.to_wire data));
  Alcotest.(check int) "mtu constant" 1500 P.mtu;
  Alcotest.(check int) "max payload" 1460 P.max_tcp_payload

let with_dst_mac_preserves_headers () =
  let p =
    P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1) ~src_ip:(Ip.host 0)
      ~dst_ip:(Ip.host 1) ~src_port:1 ~dst_port:2 ~seq:7 ~ack_seq:3
      ~flags:H.Tcp_flags.ack ~payload_len:10 ()
  in
  let q = P.with_dst_mac p (Mac.host 9) in
  Alcotest.(check bool) "dst changed" true
    (Mac.equal (P.dst_mac q) (Mac.host 9));
  Alcotest.(check bool) "src kept" true (Mac.equal (P.src_mac q) (P.src_mac p));
  Alcotest.(check int) "ethertype kept" p.P.eth.H.Eth.ethertype
    q.P.eth.H.Eth.ethertype;
  Alcotest.(check int) "wire size kept" p.P.wire_size q.P.wire_size;
  (* Restoring the destination gives back a frame equal in every
     header, so nothing but the destination changed. *)
  Alcotest.(check bool) "other headers kept" true
    (P.same_headers p (P.with_dst_mac q (P.dst_mac p)))

(* ---- Flow keys ---- *)

let flow_key_of_packet () =
  let p =
    P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1) ~src_ip:(Ip.host 0)
      ~dst_ip:(Ip.host 1) ~src_port:1234 ~dst_port:80 ~seq:0 ~ack_seq:0
      ~flags:H.Tcp_flags.syn ~payload_len:0 ()
  in
  match FK.of_packet p with
  | None -> Alcotest.fail "no key"
  | Some k ->
      Alcotest.(check int) "src port" 1234 k.FK.src_port;
      Alcotest.(check int) "proto" H.Ipv4.protocol_tcp k.FK.protocol;
      let r = FK.reverse k in
      Alcotest.(check int) "reverse src" 80 r.FK.src_port;
      Alcotest.(check bool) "reverse twice" true (FK.equal k (FK.reverse r))

let flow_key_arp_none () =
  let p =
    P.arp ~src_mac:(Mac.host 1) ~dst_mac:Mac.broadcast
      {
        H.Arp.op = H.Arp.Reply;
        sender_mac = Mac.host 1;
        sender_ip = Ip.host 1;
        target_mac = Mac.host 2;
        target_ip = Ip.host 2;
      }
  in
  Alcotest.(check bool) "arp has no key" true (FK.of_packet p = None)

let flow_key_to_string_matches_pp () =
  let keys =
    [
      {
        FK.src_ip = Ip.host 0;
        dst_ip = Ip.host 1;
        src_port = 1234;
        dst_port = 80;
        protocol = H.Ipv4.protocol_tcp;
      };
      {
        FK.src_ip = Ip.host 3;
        dst_ip = Ip.host 7;
        src_port = 53;
        dst_port = 40_000;
        protocol = H.Ipv4.protocol_udp;
      };
      {
        FK.src_ip = Ip.of_int 0xFF_FF_FF_FF;
        dst_ip = Ip.of_int 0;
        src_port = 0;
        dst_port = 65_535;
        protocol = 132;
      };
    ]
  in
  List.iter
    (fun k ->
      Alcotest.(check string)
        "to_string matches pp"
        (Format.asprintf "%a" FK.pp k)
        (FK.to_string k))
    keys

(* ---- Seq32 ---- *)

let seq32_basics () =
  Alcotest.(check int) "delta forward" 10 (Seq32.delta ~prev:0 ~cur:10);
  Alcotest.(check int) "delta backward" (-10) (Seq32.delta ~prev:10 ~cur:0);
  Alcotest.(check int) "delta across wrap" 20
    (Seq32.delta ~prev:(Seq32.modulus - 10) ~cur:10);
  Alcotest.(check int) "unwrap across wrap"
    (Seq32.modulus + 5)
    (Seq32.unwrap ~base:(Seq32.modulus - 3) 5)

let seq32_qcheck =
  QCheck.Test.make ~name:"unwrap recovers full offsets near base" ~count:500
    QCheck.(pair (int_range 0 (1 lsl 40)) (int_range (-1000000) 1000000))
    (fun (base, offset) ->
      QCheck.assume (base + offset >= 0);
      let full = base + offset in
      Seq32.unwrap ~base (Seq32.wrap full) = full)

(* ---- Pcap ---- *)

let pcap_format () =
  let pcap = Pcap.create () in
  let p =
    P.tcp ~src_mac:(Mac.host 0) ~dst_mac:(Mac.host 1) ~src_ip:(Ip.host 0)
      ~dst_ip:(Ip.host 1) ~src_port:1 ~dst_port:2 ~seq:0 ~ack_seq:0
      ~flags:H.Tcp_flags.ack ~payload_len:1460 ()
  in
  Pcap.add pcap ~time:(Planck_util.Time.us 1500) p;
  let c = Pcap.contents pcap in
  Alcotest.(check int) "count" 1 (Pcap.packet_count pcap);
  (* Global header 24 + record header 16 + 54 captured bytes. *)
  Alcotest.(check int) "length" (24 + 16 + 54) (String.length c);
  Alcotest.(check char) "magic LE byte 0" '\xd4' c.[0];
  Alcotest.(check char) "magic LE byte 3" '\xa1' c.[3];
  (* ts_usec at offset 28 = 1500. *)
  Alcotest.(check int) "ts_usec" 1500
    (Char.code c.[28] lor (Char.code c.[29] lsl 8));
  (* orig_len at offset 36 = 1514. *)
  Alcotest.(check int) "orig len" 1514
    (Char.code c.[36] lor (Char.code c.[37] lsl 8))

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Alcotest.test_case "mac string roundtrip" `Quick mac_string_roundtrip;
    Alcotest.test_case "mac rejects malformed" `Quick mac_bad_strings;
    Alcotest.test_case "shadow mac encode/decode" `Quick mac_shadow;
    qtest mac_shadow_qcheck;
    Alcotest.test_case "ipv4 roundtrip and host ids" `Quick ipv4_roundtrip;
    qtest flags_roundtrip_qcheck;
    qtest tcp_wire_roundtrip_qcheck;
    Alcotest.test_case "udp wire roundtrip" `Quick udp_wire_roundtrip;
    Alcotest.test_case "arp wire roundtrip" `Quick arp_wire_roundtrip;
    Alcotest.test_case "parse rejects garbage" `Quick parse_garbage;
    Alcotest.test_case "packet sizes" `Quick packet_sizes;
    Alcotest.test_case "rewrite preserves other headers" `Quick
      with_dst_mac_preserves_headers;
    Alcotest.test_case "flow key extraction" `Quick flow_key_of_packet;
    Alcotest.test_case "arp has no flow key" `Quick flow_key_arp_none;
    qtest hash_packet_matches_key_qcheck;
    Alcotest.test_case "flow key to_string matches pp" `Quick
      flow_key_to_string_matches_pp;
    Alcotest.test_case "seq32 basics" `Quick seq32_basics;
    qtest seq32_qcheck;
    Alcotest.test_case "pcap file format" `Quick pcap_format;
  ]
