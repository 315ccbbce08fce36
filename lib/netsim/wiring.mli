(** Full-duplex cabling helpers. *)

val host_to_switch :
  Host.t ->
  Switch.t ->
  port:int ->
  rate:Planck_util.Rate.t ->
  prop_delay:Planck_util.Time.t ->
  unit
(** Connect both directions of a host–switch cable. *)

val switch_to_switch :
  Switch.t ->
  port_a:int ->
  Switch.t ->
  port_b:int ->
  rate:Planck_util.Rate.t ->
  prop_delay:Planck_util.Time.t ->
  unit

val switch_to_switch_remote :
  Switch.t ->
  port_a:int ->
  Switch.t ->
  port_b:int ->
  rate:Planck_util.Rate.t ->
  prop_delay:Planck_util.Time.t ->
  handoff_ab:(Planck_util.Time.t -> Planck_packet.Packet.t -> unit) ->
  handoff_ba:(Planck_util.Time.t -> Planck_packet.Packet.t -> unit) ->
  unit
(** Cross-shard cable: the two switches live on different shard
    engines, so each direction hands departures (with their arrival
    time) to a {!Shard} channel instead of calling the peer's ingress
    directly. [prop_delay] must be at least the owning group's
    lookahead bound — {!Shard.channel} enforces this. *)

val default_prop_delay : Planck_util.Time.t
(** 300 ns — a few tens of metres of fibre plus PHY latency. *)
