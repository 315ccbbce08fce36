module Mac = Planck_packet.Mac
module Switch = Planck_netsim.Switch

type tree = { dst_host : int; alt : int; mac : Mac.t; out_ports : int array }

type t = { fabric : Fabric.t; alts : int; trees : (Mac.t, tree) Hashtbl.t }

let create fabric ~alts ~tree_fn =
  if alts < 1 then invalid_arg "Routing.create: need at least one route";
  let trees = Hashtbl.create 64 in
  for dst = 0 to Fabric.host_count fabric - 1 do
    for alt = 0 to alts - 1 do
      let mac = Mac.shadow (Mac.host dst) ~alt in
      Hashtbl.replace trees mac
        { dst_host = dst; alt; mac; out_ports = tree_fn ~dst ~alt }
    done
  done;
  { fabric; alts; trees }

let fabric t = t.fabric
let alts t = t.alts

let install t =
  (* MAC-sorted so rule-install order (and any tap or journal watching
     it) is reproducible run to run. *)
  let trees =
    List.sort
      (fun (a, _) (b, _) -> Mac.compare a b)
      (List.of_seq (Hashtbl.to_seq t.trees))
  in
  List.iter
    (fun (mac, tree) ->
      Array.iteri
        (fun sw out_port ->
          if out_port >= 0 then
            Switch.add_route (Fabric.switch t.fabric sw) mac out_port)
        tree.out_ports;
      if tree.alt > 0 then begin
        (* Shadow MACs must be rewritten to the base MAC at the
           destination's edge switch or the host NIC will filter the
           frame (paper §6.2). *)
        let edge, _ = Fabric.host_attachment t.fabric ~host:tree.dst_host in
        Switch.add_rewrite
          (Fabric.switch t.fabric edge)
          ~from_mac:mac
          ~to_mac:(Mac.host tree.dst_host)
      end)
    trees

let mac_for t ~dst ~alt =
  if alt < 0 || alt >= t.alts then invalid_arg "Routing.mac_for: bad alternate";
  Mac.shadow (Mac.host dst) ~alt

let tree t mac = Hashtbl.find_opt t.trees mac

type hop = { switch : int; in_port : int; out_port : int }

let path t ~src ~dst_mac =
  let tree =
    match Hashtbl.find_opt t.trees dst_mac with
    | Some tree -> tree
    | None ->
        invalid_arg
          (Printf.sprintf "Routing.path: unknown MAC %s" (Mac.to_string dst_mac))
  in
  let max_hops = Fabric.switch_count t.fabric + 1 in
  let rec walk switch in_port hops remaining =
    if remaining = 0 then invalid_arg "Routing.path: loop detected";
    let out_port = tree.out_ports.(switch) in
    if out_port < 0 then invalid_arg "Routing.path: walked off the tree";
    let hop = { switch; in_port; out_port } in
    match Fabric.peer t.fabric ~switch ~port:out_port with
    | Fabric.To_host h when h = tree.dst_host -> List.rev (hop :: hops)
    | Fabric.To_host _ -> invalid_arg "Routing.path: tree ends at wrong host"
    | Fabric.To_switch (next, next_in) ->
        walk next next_in (hop :: hops) (remaining - 1)
    | Fabric.To_monitor | Fabric.Unwired ->
        invalid_arg "Routing.path: tree uses an unwired port"
  in
  let first_switch, first_port = Fabric.host_attachment t.fabric ~host:src in
  if src = tree.dst_host then []
  else walk first_switch first_port [] max_hops

let links_of_path hops = List.map (fun h -> (h.switch, h.out_port)) hops
