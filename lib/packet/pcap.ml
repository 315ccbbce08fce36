(* Classic pcap: 24-byte global header, then per-packet records of
   16-byte header + captured bytes. Little-endian with magic
   0xa1b2c3d4 (microsecond timestamps). *)

type t = { buf : Buffer.t; snaplen : int; mutable count : int }

let add_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let add_u32 buf v =
  add_u16 buf (v land 0xFFFF);
  add_u16 buf ((v lsr 16) land 0xFFFF)

let create ?(snaplen = 65535) () =
  let buf = Buffer.create 4096 in
  add_u32 buf 0xA1B2C3D4 (* magic *);
  add_u16 buf 2 (* version major *);
  add_u16 buf 4 (* version minor *);
  add_u32 buf 0 (* thiszone *);
  add_u32 buf 0 (* sigfigs *);
  add_u32 buf snaplen;
  add_u32 buf 1 (* LINKTYPE_ETHERNET *);
  { buf; snaplen; count = 0 }

let add t ~time packet =
  let wire = Packet.to_wire packet in
  let captured = min (Bytes.length wire) t.snaplen in
  let us = time / Planck_util.Time.microsecond in
  add_u32 t.buf (us / 1_000_000) (* ts_sec *);
  add_u32 t.buf (us mod 1_000_000) (* ts_usec *);
  add_u32 t.buf captured;
  add_u32 t.buf (Packet.wire_size packet);
  Buffer.add_subbytes t.buf wire 0 captured;
  t.count <- t.count + 1

let packet_count t = t.count
let contents t = Buffer.contents t.buf
