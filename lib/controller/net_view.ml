module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Flow_key = Planck_packet.Flow_key
module Mac = Planck_packet.Mac
module Ipv4_addr = Planck_packet.Ipv4_addr
module Routing = Planck_topology.Routing

type flow = {
  key : Flow_key.t;
  mutable rate : Rate.t;
  mutable dst_mac : Mac.t;
  mutable last_heard : Time.t;
  mutable no_reroute_until : Time.t;
  mutable commanded : bool;
}

type t = {
  routing : Routing.t;
  flow_timeout : Time.t;
  flows : flow Flow_key.Table.t;
  (* Paths are static per (src, mac); memoize the link lists. *)
  path_cache : (int * Mac.t, (int * int) list) Hashtbl.t;
}

let create routing ~flow_timeout =
  {
    routing;
    flow_timeout;
    flows = Flow_key.Table.create 64;
    path_cache = Hashtbl.create 256;
  }

let observe t ~now ~key ~rate ~dst_mac =
  match Flow_key.Table.find_opt t.flows key with
  | Some flow ->
      flow.rate <- rate;
      (* The controller is the only writer of routes: once it has
         commanded one, annotations (which lag by the mirror-port
         buffering) never override it. *)
      if not flow.commanded then flow.dst_mac <- dst_mac;
      flow.last_heard <- now;
      flow
  | None ->
      let flow =
        {
          key;
          rate;
          dst_mac;
          last_heard = now;
          no_reroute_until = Time.zero;
          commanded = false;
        }
      in
      Flow_key.Table.replace t.flows key flow;
      flow

let expire t ~now =
  let dead = ref [] in
  Flow_key.Table.iter_sorted
    (fun key flow ->
      if now - flow.last_heard > t.flow_timeout then dead := key :: !dead)
    t.flows;
  List.iter (Flow_key.Table.remove t.flows) !dead

let size t = Flow_key.Table.length t.flows

let links_for t ~src ~dst_mac =
  let cache_key = (src, dst_mac) in
  match Hashtbl.find_opt t.path_cache cache_key with
  | Some links -> links
  | None ->
      let links =
        match Routing.path t.routing ~src ~dst_mac with
        | exception Invalid_argument _ -> []
        | hops -> Routing.links_of_path hops
      in
      Hashtbl.replace t.path_cache cache_key links;
      links

let path_links t flow =
  match Ipv4_addr.host_id flow.key.Flow_key.src_ip with
  | None -> []
  | Some src -> links_for t ~src ~dst_mac:flow.dst_mac

let bottleneck t ~capacity ~exclude ~links =
  match links with
  | [] -> 0.0
  | links ->
      (* Sorted fold: float addition is order-sensitive, so summing in
         hash order would make the load (and reroute choices near the
         threshold) nondeterministic. *)
      let load link =
        Flow_key.Table.fold_sorted
          (fun _ flow acc ->
            if flow == exclude then acc
            else if List.mem link (path_links t flow) then acc +. flow.rate
            else acc)
          t.flows 0.0
      in
      List.fold_left
        (fun acc link -> min acc (capacity -. load link))
        infinity links

let set_route _t flow mac =
  flow.dst_mac <- mac;
  flow.commanded <- true
