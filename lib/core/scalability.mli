(** The §9.1 scalability analysis: how many collector servers a Planck
    deployment needs at datacenter scale, and what dedicating one
    monitor port per switch costs in host count.

    The paper's arithmetic: a two-socket collector server hosts 14
    collector instances (one 10 Gbps port each); a k = 62 three-level
    fat-tree of 64-port switches (one port reserved for monitoring)
    supports 59,582 hosts on 4,805 switches and therefore needs 344
    collector servers — 0.58 % additional machines. A full-bisection
    Jellyfish with the same host count needs 3,505 switches and 251
    collectors (0.42 %). *)

type plan = {
  hosts : int;
  switches : int;
  collector_servers : int;
  additional_machines_pct : float;  (** collectors / hosts *)
}

val fat_tree_plan : k:int -> plan
(** Three-level fat-tree of (k+2)-port switches, one port per switch
    reserved for monitoring (so the tree is built with arity [k]).
    Raises [Invalid_argument] for odd [k]. *)

val jellyfish_plan : ports:int -> hosts_per_switch:int -> hosts:int -> plan
(** Jellyfish of [ports]-port switches (one reserved for monitoring)
    carrying [hosts_per_switch] hosts each, sized for [hosts] hosts.
    The paper's full-bisection sizing for 64-port switches uses 17
    hosts per switch. *)

type shard_plan = {
  shards : int;
  switches_per_shard : int array;
  hosts_per_shard : int array;
  collector_servers_per_shard : int array;
      (** [ceil (switches / 14)] per shard — collectors follow their
          switch's shard, so each shard's collector servers are sized
          from its own switch count. *)
  imbalance_pct : float;
      (** Overfill of the fullest shard: [100 * (max hosts / mean - 1)].
          0 when hosts divide evenly. *)
}

val shard_plan : plan -> shards:int -> shard_plan
(** Split a deployment plan over [shards] simulation shards using the
    same contiguous near-equal blocks as [Partition] ([i * shards / n]),
    so block sizes differ by at most one. Raises [Invalid_argument] if
    [shards < 1]. *)

val monitor_port_host_cost : fat_tree_k:int -> float * float
(** [(fat_tree_pct, jellyfish_pct)]: fraction of hosts given up by
    reserving a monitor port, for the same number of switches. The
    paper reports 1.4 % (fat-tree) and 5.5 % (Jellyfish). *)
