(** One-call construction of a ready-to-use simulated testbed: topology
    built, PAST + shadow-MAC routing installed, ARP caches converged,
    TCP endpoints on every host.

    The defaults mirror the paper's hardware: a 16-host three-tier
    fat-tree of 5-port logical switches at 10 Gbps (§7.1), or a single
    non-blocking switch (the "Optimal" reference and the §5
    microbenchmark setup). *)

type topology =
  | Fat_tree of { k : int }
  | Single_switch of { hosts : int }
  | Jellyfish of Planck_topology.Jellyfish.spec

type spec = {
  topology : topology;
  link_rate : Planck_util.Rate.t;
  seed : int;
  switch_config : Planck_netsim.Switch.config;
  host_stack : Planck_netsim.Host.stack;
  alts : int option;
      (** alternate routes per destination; default: all cores on a
          fat-tree, 1 on a single switch, 4 on Jellyfish *)
  shards : int option;
      (** run on a {!Planck_netsim.Shard} group of this many domains
          (partitioned per {!Planck_topology.Partition}); [None] is the
          classic single-domain engine *)
  core_prop_delay : Planck_util.Time.t option;
      (** fat-tree agg-core link delay override (the sharded lookahead
          bound); applied identically at any shard count so runs stay
          comparable *)
}

val default_spec : spec
(** 16-host fat-tree (k = 4), 10 Gbps, seed 1. *)

val paper_fat_tree : ?seed:int -> unit -> spec
val optimal : ?seed:int -> ?hosts:int -> unit -> spec
(** The 16 hosts on one non-blocking switch. *)

val microbench : ?seed:int -> ?hosts:int -> ?rate:Planck_util.Rate.t ->
  ?switch_config:Planck_netsim.Switch.config -> unit -> spec
(** Single switch for the §5 microbenchmarks (defaults: 16 hosts,
    10 Gbps). *)

type t = {
  spec : spec;
  engine : Planck_netsim.Engine.t;
  fabric : Planck_topology.Fabric.t;
  routing : Planck_topology.Routing.t;
  endpoints : Planck_tcp.Endpoint.t array;
  prng : Planck_util.Prng.t;
  shard : Planck_netsim.Shard.group option;
      (** the shard group when [spec.shards] was set; [engine] is then
          shard 0's engine *)
}

val create : spec -> t

val host_count : t -> int
val link_rate : t -> Planck_util.Rate.t
