module Prng = Planck_util.Prng

type spec = {
  num_switches : int;
  switch_degree : int;
  hosts_per_switch : int;
}

(* Random r-regular multigraph-free wiring by repeated stub matching:
   shuffle the stub list and pair sequentially; restart on self-loops or
   duplicate edges. Fine for the modest sizes we simulate. *)
let random_regular prng ~n ~degree =
  if n * degree mod 2 <> 0 then
    invalid_arg "Jellyfish: n * degree must be even";
  if degree >= n then invalid_arg "Jellyfish: degree must be < switches";
  let rec attempt tries =
    if tries = 0 then invalid_arg "Jellyfish: could not wire a regular graph";
    let stubs = Array.make (n * degree) 0 in
    for i = 0 to Array.length stubs - 1 do
      stubs.(i) <- i / degree
    done;
    Prng.shuffle prng stubs;
    let edges = ref [] in
    let seen = Hashtbl.create (n * degree) in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < Array.length stubs do
      let a = stubs.(!i) and b = stubs.(!i + 1) in
      let key = (min a b, max a b) in
      if a = b || Hashtbl.mem seen key then ok := false
      else begin
        Hashtbl.replace seen key ();
        edges := (a, b) :: !edges;
        i := !i + 2
      end
    done;
    if !ok then !edges else attempt (tries - 1)
  in
  attempt 200

let build engine ~spec ~switch_config ~link_rate ?host_stack ?sharding ~prng () =
  let { num_switches; switch_degree; hosts_per_switch } = spec in
  if num_switches <= 1 then invalid_arg "Jellyfish: need >= 2 switches";
  if hosts_per_switch < 0 then invalid_arg "Jellyfish: negative host count";
  let ports = hosts_per_switch + switch_degree + 1 in
  let fabric =
    Fabric.build engine ~switch_ports:ports ~switch_config ~link_rate
      ?host_stack ?sharding
      ~num_switches
      ~num_hosts:(num_switches * hosts_per_switch)
      ~prng ()
  in
  (* Hosts occupy the low ports of their switch. *)
  for sw = 0 to num_switches - 1 do
    for slot = 0 to hosts_per_switch - 1 do
      Fabric.wire_host fabric
        ~host:((sw * hosts_per_switch) + slot)
        ~switch:sw ~port:slot
    done
  done;
  (* Random regular inter-switch graph on the middle ports. *)
  let next_port = Array.make num_switches hosts_per_switch in
  let take_port sw =
    let p = next_port.(sw) in
    next_port.(sw) <- p + 1;
    p
  in
  List.iter
    (fun (a, b) ->
      Fabric.wire_switches fabric ~a ~port_a:(take_port a) ~b
        ~port_b:(take_port b))
    (random_regular prng ~n:num_switches ~degree:switch_degree);
  for sw = 0 to num_switches - 1 do
    Fabric.reserve_monitor fabric ~switch:sw ~port:(ports - 1)
  done;
  fabric

let tree fabric ~dst ~alt =
  let n = Fabric.switch_count fabric in
  let root, host_port = Fabric.host_attachment fabric ~host:dst in
  let out = Array.make n (-1) in
  out.(root) <- host_port;
  (* BFS from the root over switch-switch links; each discovered switch
     points back toward its parent. The alternate index rotates the
     port scan order, so different alts prefer different first hops. *)
  let visited = Array.make n false in
  visited.(root) <- true;
  let queue = Queue.create () in
  Queue.push root queue;
  let ports = Fabric.switch_ports fabric in
  while not (Queue.is_empty queue) do
    let sw = Queue.pop queue in
    for i = 0 to ports - 1 do
      let port = (i + alt) mod ports in
      match Fabric.peer fabric ~switch:sw ~port with
      | Fabric.To_switch (next, next_port) ->
          if not visited.(next) then begin
            visited.(next) <- true;
            out.(next) <- next_port;
            Queue.push next queue
          end
      | Fabric.To_host _ | Fabric.To_monitor | Fabric.Unwired -> ()
    done
  done;
  out

let routes fabric ~alts =
  let hosts = Fabric.host_count fabric in
  let trees =
    Array.init (hosts * alts) (fun i ->
        tree fabric ~dst:(i / alts) ~alt:(i mod alts))
  in
  fun ~switch ->
    let lookup mac =
      let dst = Routing.dst_of ~hosts ~alts mac in
      if dst < 0 then -1
      else trees.((dst * alts) + Planck_packet.Mac.alt mac).(switch)
    in
    lookup
