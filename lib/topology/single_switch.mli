(** One non-blocking switch with every host attached — the paper's
    "Optimal" reference configuration (§7.1), and the testbed for all
    the single-switch microbenchmarks of §5. *)

val build :
  Planck_netsim.Engine.t ->
  hosts:int ->
  switch_config:Planck_netsim.Switch.config ->
  link_rate:Planck_util.Rate.t ->
  ?host_stack:Planck_netsim.Host.stack ->
  ?sharding:Fabric.sharding ->
  prng:Planck_util.Prng.t ->
  unit ->
  Fabric.t
(** Host [i] on port [i]; the monitor port is port [hosts]. *)

val out_port : switch:int -> dst:int -> alt:int -> int
(** The trivial one-switch "spanning tree" for {!Routing.create}: host
    [dst]'s port, on every alternate. *)
