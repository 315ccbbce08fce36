(** Jellyfish topology (Singla et al., NSDI'12): switches form a random
    r-regular graph, hosts hang off remaining ports.

    The paper's scalability analysis (§9.1) compares collector
    requirements on fat-trees vs Jellyfish; this builder makes those
    comparisons runnable. Routing uses per-destination BFS spanning
    trees with alternate-specific tie-breaking, giving diverse (not
    necessarily disjoint) alternates. *)

type spec = {
  num_switches : int;
  switch_degree : int;  (** inter-switch ports per switch (r) *)
  hosts_per_switch : int;
}

val build :
  Planck_netsim.Engine.t ->
  spec:spec ->
  switch_config:Planck_netsim.Switch.config ->
  link_rate:Planck_util.Rate.t ->
  ?host_stack:Planck_netsim.Host.stack ->
  ?sharding:Fabric.sharding ->
  prng:Planck_util.Prng.t ->
  unit ->
  Fabric.t
(** Wire a random regular graph drawn from [prng]. Port layout per
    switch: hosts first, then switch-to-switch links, then the monitor
    port. Raises [Invalid_argument] on infeasible specs (odd total
    degree, degree >= switches, ...). *)

val routes :
  Fabric.t -> alts:int -> switch:int -> Planck_packet.Mac.t -> int
(** The {!Routing.create} route function ([~out_port:(routes fabric)])
    over a BFS spanning tree toward each host's switch per alternate
    ([alt] seeds the neighbor visiting order). Not closed-form, so
    [routes fabric ~alts] tabulates them. *)
