type t = {
  src_ip : Ipv4_addr.t;
  dst_ip : Ipv4_addr.t;
  src_port : int;
  dst_port : int;
  protocol : int;
}

let of_packet : Packet.t -> t option = function
  | Tcp { src_ip; dst_ip; src_port; dst_port; _ } ->
      Some
        {
          src_ip;
          dst_ip;
          src_port;
          dst_port;
          protocol = Headers.Ipv4.protocol_tcp;
        }
  | Udp { src_ip; dst_ip; src_port; dst_port; _ } ->
      Some
        {
          src_ip;
          dst_ip;
          src_port;
          dst_port;
          protocol = Headers.Ipv4.protocol_udp;
        }
  | Arp _ -> None

let reverse t =
  {
    src_ip = t.dst_ip;
    dst_ip = t.src_ip;
    src_port = t.dst_port;
    dst_port = t.src_port;
    protocol = t.protocol;
  }

let equal (a : t) (b : t) =
  Ipv4_addr.equal a.src_ip b.src_ip
  && Ipv4_addr.equal a.dst_ip b.dst_ip
  && Int.equal a.src_port b.src_port
  && Int.equal a.dst_port b.dst_port
  && Int.equal a.protocol b.protocol

let compare (a : t) (b : t) =
  match Ipv4_addr.compare a.src_ip b.src_ip with
  | 0 -> (
      match Ipv4_addr.compare a.dst_ip b.dst_ip with
      | 0 -> (
          match Int.compare a.src_port b.src_port with
          | 0 -> (
              match Int.compare a.dst_port b.dst_port with
              | 0 -> Int.compare a.protocol b.protocol
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

(* Multiplicative mixing over the five fields; every field already fits
   in an int, so no structure walk and no float boxing. *)
let[@inline] mix h x = ((h * 486187739) + x) land max_int

let hash5 ~src_ip ~dst_ip ~src_port ~dst_port ~protocol =
  mix
    (mix
       (mix (mix (mix 17 (Ipv4_addr.to_int src_ip)) (Ipv4_addr.to_int dst_ip))
          src_port)
       dst_port)
    protocol

let hash (t : t) =
  hash5 ~src_ip:t.src_ip ~dst_ip:t.dst_ip ~src_port:t.src_port
    ~dst_port:t.dst_port ~protocol:t.protocol

(* [hash] of [of_packet p], read straight off the frame. *)
let hash_packet : Packet.t -> int = function
  | Tcp { src_ip; dst_ip; src_port; dst_port; _ } ->
      hash5 ~src_ip ~dst_ip ~src_port ~dst_port
        ~protocol:Headers.Ipv4.protocol_tcp
  | Udp { src_ip; dst_ip; src_port; dst_port; _ } ->
      hash5 ~src_ip ~dst_ip ~src_port ~dst_port
        ~protocol:Headers.Ipv4.protocol_udp
  | Arp _ -> 0

let pp ppf t =
  (* planck-lint: allow hot-alloc -- journal labels only; call sites guard with Journal.enabled *)
  Format.fprintf ppf "%a:%d > %a:%d/%s" Ipv4_addr.pp t.src_ip t.src_port
    Ipv4_addr.pp t.dst_ip t.dst_port
    (if t.protocol = Headers.Ipv4.protocol_tcp then "tcp"
     else if t.protocol = Headers.Ipv4.protocol_udp then "udp"
     (* planck-lint: allow hot-alloc -- same journal-only path *)
     else string_of_int t.protocol)

(* Digit-at-a-time decimal so [to_string] never touches the formatting
   APIs the hot-path alloc rule bans; ports/octets/protocols are always
   non-negative. *)
let add_decimal buf n =
  if n = 0 then Buffer.add_char buf '0'
  else begin
    let rec go n =
      if n > 0 then begin
        go (n / 10);
        Buffer.add_char buf (Char.chr (Char.code '0' + (n mod 10)))
      end
    in
    go n
  end

let add_ip buf ip =
  let v = Ipv4_addr.to_int ip in
  add_decimal buf ((v lsr 24) land 0xFF);
  Buffer.add_char buf '.';
  add_decimal buf ((v lsr 16) land 0xFF);
  Buffer.add_char buf '.';
  add_decimal buf ((v lsr 8) land 0xFF);
  Buffer.add_char buf '.';
  add_decimal buf (v land 0xFF)

(* Same rendering as [pp] ("src:port > dst:port/proto"), built with a
   Buffer instead of Format so per-packet-reachable journal sites (the
   sketch tier's promote/demote events) can label flows without a
   hot-alloc suppression. *)
let to_string t =
  let buf = Buffer.create 48 in
  add_ip buf t.src_ip;
  Buffer.add_char buf ':';
  add_decimal buf t.src_port;
  Buffer.add_string buf " > ";
  add_ip buf t.dst_ip;
  Buffer.add_char buf ':';
  add_decimal buf t.dst_port;
  Buffer.add_char buf '/';
  if t.protocol = Headers.Ipv4.protocol_tcp then Buffer.add_string buf "tcp"
  else if t.protocol = Headers.Ipv4.protocol_udp then
    Buffer.add_string buf "udp"
  else add_decimal buf t.protocol;
  Buffer.contents buf

module Key = struct
  type nonrec t = t

  let equal = equal
  let compare = compare
  let hash = hash
end

module Table = struct
  include Hashtbl.Make (Key)

  (* Hash-order iteration can leak bucket layout into event ordering;
     these are the deterministic alternatives the planck-lint
     hashtbl-iteration rule points at. *)
  let sorted_bindings t =
    List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq (to_seq t))

  let iter_sorted f t = List.iter (fun (k, v) -> f k v) (sorted_bindings t)

  let fold_sorted f t init =
    List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings t)
end

module Map = Map.Make (Key)
