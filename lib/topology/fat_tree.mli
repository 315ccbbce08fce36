(** Three-tier k-ary fat-tree builder (Al-Fares et al.), the paper's
    testbed topology.

    For even [k]: [k] pods of [k/2] edge and [k/2] aggregation switches,
    [(k/2)²] cores, [k³/4] hosts. Every switch gets one extra reserved
    monitor port for Planck sampling — exactly how the paper carved its
    16-host testbed out of 5-port logical switches (§7.1, k = 4).

    Each core switch defines a unique destination-oriented spanning
    tree, which is how alternate (shadow-MAC) routes are provisioned:
    host [d]'s tree for alternate [a] goes through core
    [(d + a) mod cores]. *)

type shape = {
  k : int;
  pods : int;
  cores : int;
  aggs_per_pod : int;
  edges_per_pod : int;
  hosts_per_edge : int;
  num_switches : int;
  num_hosts : int;
}

val shape : k:int -> shape
(** Raises [Invalid_argument] if [k] is odd or [< 2]. *)

(** Switch-id layout: cores first, then aggregations pod-major, then
    edges pod-major. *)

val core_id : shape -> int -> int
val host_of : shape -> pod:int -> edge:int -> slot:int -> int
val pod_of_host : shape -> int -> int

val default_core_prop_delay : Planck_util.Time.t
(** 5 µs — roughly a kilometre of fibre up to the core tier. Not
    applied implicitly; callers opt in via [core_prop_delay] so a run
    is comparable across shard counts only when they pass the same
    value. *)

val build :
  Planck_netsim.Engine.t ->
  k:int ->
  switch_config:Planck_netsim.Switch.config ->
  link_rate:Planck_util.Rate.t ->
  ?host_stack:Planck_netsim.Host.stack ->
  ?sharding:Fabric.sharding ->
  ?core_prop_delay:Planck_util.Time.t ->
  prng:Planck_util.Prng.t ->
  unit ->
  Fabric.t * shape
(** Build and fully wire the fat-tree; monitor port is port [k] on
    every switch. [sharding] (from {!Partition.fat_tree}) spreads the
    build over a shard group; [core_prop_delay] lengthens the agg-core
    links (identically with or without sharding — under the pod
    partition those are the only cross-shard links, so it sets the
    lookahead). *)

val core_for : shape -> dst:int -> alt:int -> int
(** Core switch whose spanning tree carries alternate [alt] to host
    [dst]. *)

val out_port : shape -> alts:int -> switch:int -> Planck_packet.Mac.t -> int
(** The {!Routing.create} route function: [out_port s ~alts ~switch mac]
    is the egress port of [switch] on the spanning tree of [dst]
    through core {!core_for}[ ~dst ~alt], for
    [mac = Mac.shadow (Mac.host dst) ~alt] with [alt < alts]; [-1] for
    switches off the tree and for any other MAC. Computed, not stored:
    [out_port s ~alts ~switch] is the switch's lookup, and it divides
    nothing. *)

val max_alts : shape -> int
(** Number of distinct trees available per destination = number of
    cores. *)
