(** Controller-initiated switch and host actions, with control-channel
    latency applied. *)

val install_flow_rewrite :
  Control_channel.t ->
  Planck_netsim.Switch.t ->
  key:Planck_packet.Flow_key.t ->
  to_mac:Planck_packet.Mac.t ->
  on_installed:(unit -> unit) ->
  unit
(** Install an ingress destination-MAC rewrite rule for one flow — the
    OpenFlow rerouting mechanism (§6.2). The rule takes effect (and
    [on_installed] runs) after channel latency + TCAM install time. *)

val spoof_arp :
  ?on_injected:(unit -> unit) ->
  Control_channel.t ->
  Planck_netsim.Switch.t ->
  port:int ->
  target:Planck_netsim.Host.t ->
  pretend_ip:Planck_packet.Ipv4_addr.t ->
  pretend_mac:Planck_packet.Mac.t ->
  unit
(** The ARP rerouting mechanism (§6.2): send a {e unicast ARP request}
    to [target] (out of [port] on its edge switch) claiming that
    [pretend_ip] is at [pretend_mac]. Linux performs MAC learning on
    unicast requests, so the target updates its ARP cache and its very
    next segments toward [pretend_ip] use the new (shadow) MAC. *)
