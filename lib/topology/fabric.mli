(** A built network: simulated switches and hosts plus the logical
    adjacency the control plane reasons over.

    Builders ({!Fat_tree}, {!Single_switch}, {!Jellyfish}) return one of
    these. Monitor ports are reserved at build time; the monitoring
    layer attaches capture sinks to them with {!attach_sink}. *)

type peer =
  | To_host of int  (** host id *)
  | To_switch of int * int  (** (switch id, peer port) *)
  | To_monitor  (** reserved for a capture sink *)
  | Unwired

type t

type sharding = {
  group : Planck_netsim.Shard.group;
  shard_of_switch : int -> int;
  shard_of_host : int -> int;
}
(** How a build spreads over a {!Planck_netsim.Shard} group: every
    switch and host is created on its shard's engine (usually from a
    {!Partition.t}). *)

val build :
  Planck_netsim.Engine.t ->
  switch_ports:int ->
  switch_config:Planck_netsim.Switch.config ->
  link_rate:Planck_util.Rate.t ->
  ?prop_delay:Planck_util.Time.t ->
  ?host_stack:Planck_netsim.Host.stack ->
  ?sharding:sharding ->
  num_switches:int ->
  num_hosts:int ->
  prng:Planck_util.Prng.t ->
  unit ->
  t
(** Allocate switches and hosts; no cables yet. Builders call this and
    then {!wire_host} / {!wire_switches} / {!reserve_monitor}. With
    [sharding], each device lives on its shard's engine and
    {!wire_switches} routes shard-crossing links over channels;
    [engine] is then only the reference (shard 0) engine. *)

(** {2 Wiring (builders only)} *)

val wire_host : t -> host:int -> switch:int -> port:int -> unit
(** Raises [Invalid_argument] if the host and switch are on different
    shards — partitioners keep hosts with their edge switch, so a host
    uplink never crosses a shard boundary. *)

val wire_switches :
  ?prop_delay:Planck_util.Time.t ->
  t ->
  a:int ->
  port_a:int ->
  b:int ->
  port_b:int ->
  unit
(** [prop_delay] overrides the fabric default for this one link (e.g. a
    fat-tree's longer agg-core runs). A link between switches on
    different shards becomes a cross-shard cable over {!Shard.channel}s;
    its propagation delay then feeds the group's lookahead bound. *)

val reserve_monitor : t -> switch:int -> port:int -> unit

(** {2 Access} *)

val switch_count : t -> int
val host_count : t -> int
val switch : t -> int -> Planck_netsim.Switch.t
val host : t -> int -> Planck_netsim.Host.t
val hosts : t -> Planck_netsim.Host.t array
val link_rate : t -> Planck_util.Rate.t
val switch_ports : t -> int

val peer : t -> switch:int -> port:int -> peer

val shard_of_switch : t -> int -> int
val shard_of_host : t -> int -> int
(** Shard assignments; 0 everywhere for an unsharded build. Collector
    placement follows [shard_of_switch] (a sink must live on its
    switch's engine). *)

val shard_group : t -> Planck_netsim.Shard.group option
val host_attachment : t -> host:int -> int * int
(** (edge switch, port) of a host's uplink. *)

val monitor_port : t -> switch:int -> int option

val attach_sink :
  t -> switch:int -> deliver:(Planck_packet.Packet.t -> unit) -> unit
(** Cable the reserved monitor port of [switch] to a capture sink and
    enable mirroring of every wired data port to it. Raises
    [Invalid_argument] if no monitor port was reserved. *)

val populate_arp : t -> unit
(** Make every host resolve every other host's base MAC — the
    experiments start from converged caches. O(n): one
    {!Planck_netsim.Host.set_neighbours} per host, no per-pair entry
    (host [i] is [Ipv4_addr.host i] / [Mac.host i]). *)

val data_ports : t -> switch:int -> int list
(** Wired, non-monitor ports of a switch. *)
