module Mac = Planck_packet.Mac
module Switch = Planck_netsim.Switch

type t = {
  fabric : Fabric.t;
  hosts : int;
  alts : int;
  (* Each switch's lookup, for [install] and [path]. *)
  lookups : (Mac.t -> int) array;
}

let create fabric ~alts ~out_port =
  if alts < 1 then invalid_arg "Routing.create: need at least one route";
  let out_port = out_port ~alts in
  let lookups =
    Array.init (Fabric.switch_count fabric) (fun switch -> out_port ~switch)
  in
  { fabric; hosts = Fabric.host_count fabric; alts; lookups }

let fabric t = t.fabric
let alts t = t.alts

let[@inline] dst_of ~hosts ~alts mac =
  let dst = Mac.host_id mac in
  if dst < hosts && Mac.alt mac < alts then dst else -1

let routable t mac = dst_of ~hosts:t.hosts ~alts:t.alts mac >= 0

let install t =
  Array.iteri
    (fun sw lookup -> Switch.set_routes (Fabric.switch t.fabric sw) lookup)
    t.lookups;
  (* Shadow MACs must be rewritten to the base MAC at the destination's
     edge switch or the host NIC will filter the frame (paper §6.2). *)
  for dst = 0 to t.hosts - 1 do
    let edge, _ = Fabric.host_attachment t.fabric ~host:dst in
    for alt = 1 to t.alts - 1 do
      Switch.add_rewrite
        (Fabric.switch t.fabric edge)
        ~from_mac:(Mac.shadow (Mac.host dst) ~alt)
        ~to_mac:(Mac.host dst)
    done
  done

let mac_for t ~dst ~alt =
  if alt < 0 || alt >= t.alts then invalid_arg "Routing.mac_for: bad alternate";
  Mac.shadow (Mac.host dst) ~alt

type hop = { switch : int; in_port : int; out_port : int }

let path t ~src ~dst_mac =
  let dst = dst_of ~hosts:t.hosts ~alts:t.alts dst_mac in
  if dst < 0 then
    invalid_arg
      (Printf.sprintf "Routing.path: unknown MAC %s" (Mac.to_string dst_mac));
  let max_hops = Fabric.switch_count t.fabric + 1 in
  let rec walk switch in_port hops remaining =
    if remaining = 0 then invalid_arg "Routing.path: loop detected";
    let out_port = t.lookups.(switch) dst_mac in
    if out_port < 0 then invalid_arg "Routing.path: walked off the tree";
    let hop = { switch; in_port; out_port } in
    match Fabric.peer t.fabric ~switch ~port:out_port with
    | Fabric.To_host h when h = dst -> List.rev (hop :: hops)
    | Fabric.To_host _ -> invalid_arg "Routing.path: tree ends at wrong host"
    | Fabric.To_switch (next, next_in) ->
        walk next next_in (hop :: hops) (remaining - 1)
    | Fabric.To_monitor | Fabric.Unwired ->
        invalid_arg "Routing.path: tree uses an unwired port"
  in
  let first_switch, first_port = Fabric.host_attachment t.fabric ~host:src in
  if src = dst then [] else walk first_switch first_port [] max_hops

let links_of_path hops = List.map (fun h -> (h.switch, h.out_port)) hops
