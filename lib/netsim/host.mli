(** An end host: kernel stack delays, a NIC, and an ARP cache with
    Linux-like update semantics.

    The stack model charges every sent frame a random kernel+driver
    delay before it reaches the NIC queue, and every received frame a
    delay before the application sees it — these produce the realistic
    RTTs (≈180–250 µs on an idle 10 G network) and the sender-side
    component of Planck's sample latency (§5.2).

    ARP behaviour follows the paper's §6.2 discussion of Linux:
    unsolicited ARP {e replies} are ignored, but a unicast ARP
    {e request} causes MAC learning and updates the cache — that is the
    controller's fast-reroute trick — subject to a configurable
    locktime (the sysctl the paper tunes to zero). *)

type stack = {
  send_delay_min : Planck_util.Time.t;
  send_delay_max : Planck_util.Time.t;
  recv_delay_min : Planck_util.Time.t;
  recv_delay_max : Planck_util.Time.t;
  arp_locktime : Planck_util.Time.t;
}

val default_stack : stack
(** send 50–90 µs, receive 35–55 µs, locktime 0. *)

type t

val create :
  Engine.t -> id:int -> ?stack:stack -> prng:Planck_util.Prng.t -> unit -> t
(** Host number [id]; its base MAC is [Mac.host id] and its address
    [Ipv4_addr.host id]. *)

val mac : t -> Planck_packet.Mac.t
val ip : t -> Planck_packet.Ipv4_addr.t
val engine : t -> Engine.t

val connect :
  t ->
  rate:Planck_util.Rate.t ->
  prop_delay:Planck_util.Time.t ->
  deliver:(Planck_packet.Packet.t -> unit) ->
  unit
(** Wire the NIC's transmit side to a peer ingress function. *)

val ingress : t -> Planck_packet.Packet.t -> unit
(** A frame fully arrived at the NIC; hand to the peer's transmit side. *)

val send : t -> Planck_packet.Packet.t -> unit
(** Transmit through the stack: send-trace hooks fire now (the
    "tcpdump timestamp"), then the frame reaches the NIC queue after the
    stack send delay. *)

val set_receive : t -> (Planck_packet.Packet.t -> unit) -> unit
(** Application/L4 handler, called after the stack receive delay for
    every accepted non-ARP frame. *)

val add_send_trace :
  t -> (Planck_util.Time.t -> Planck_packet.Packet.t -> unit) -> unit
(** Register a tcpdump-like tap on sends. *)

val add_recv_trace :
  t -> (Planck_util.Time.t -> Planck_packet.Packet.t -> unit) -> unit
(** Tap on accepted frames, fired together with the receive handler. *)

(** {2 ARP}

    A host's ARP state has two parts. {!set_neighbours} makes every
    other fabric host resolve to its base MAC by address arithmetic,
    storing nothing — the converged caches the experiments start from.
    The cache holds only the entries that {!arp_set} or ARP traffic (a
    controller's spoofed unicast request) touched, and a cached entry
    takes precedence. On first touch a neighbour's entry starts as the
    implicit one, last updated when {!set_neighbours} ran, so the
    locktime applies to it exactly as to a pre-filled static table. *)

val set_neighbours : t -> hosts:int -> unit
(** Resolve [Ipv4_addr.host j] to [Mac.host j] for every [j < hosts]
    other than this host's own id. Stores nothing and leaves the cache
    as it is. *)

val arp_lookup : t -> Planck_packet.Ipv4_addr.t -> Planck_packet.Mac.t option
(** The cached entry for the address if there is one, else its
    neighbour resolution, else [None]. *)

val arp_set : t -> Planck_packet.Ipv4_addr.t -> Planck_packet.Mac.t -> unit
(** Administratively install or overwrite a cache entry (like static
    ARP), stamped now. *)

val filtered_frames : t -> int
(** Frames dropped because their destination MAC was neither this
    host's base MAC nor broadcast — what happens when a shadow-MAC
    rewrite rule is missing. *)
