let default_prop_delay = Planck_util.Time.ns 300

let host_to_switch host switch ~port ~rate ~prop_delay =
  Host.connect host ~rate ~prop_delay ~deliver:(fun packet ->
      Switch.ingress switch ~port packet);
  Switch.connect switch ~port ~rate ~prop_delay
    ~deliver:(fun packet -> Host.ingress host packet)
    ()

let switch_to_switch sw_a ~port_a sw_b ~port_b ~rate ~prop_delay =
  Switch.connect sw_a ~port:port_a ~rate ~prop_delay
    ~deliver:(fun packet -> Switch.ingress sw_b ~port:port_b packet)
    ();
  Switch.connect sw_b ~port:port_b ~rate ~prop_delay
    ~deliver:(fun packet -> Switch.ingress sw_a ~port:port_a packet)
    ()

(* Cross-shard cable: each direction's transmit side hands departures to
   its shard channel (which schedules the arrival in the peer shard's
   wheel), so the local deliver path is never taken. *)
let switch_to_switch_remote sw_a ~port_a sw_b ~port_b ~rate ~prop_delay
    ~handoff_ab ~handoff_ba =
  Switch.connect sw_a ~port:port_a ~rate ~prop_delay ~handoff:handoff_ab
    ~deliver:ignore ();
  Switch.connect sw_b ~port:port_b ~rate ~prop_delay ~handoff:handoff_ba
    ~deliver:ignore ()
