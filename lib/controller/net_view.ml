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
  (* [flows] in ascending key order, or [None] once [observe] or
     [expire] has changed which flows there are. *)
  mutable sorted : flow list option;
  (* Paths are static per (src, mac); memoize the link lists. *)
  path_cache : (int * Mac.t, (int * int) list) Hashtbl.t;
}

let create routing ~flow_timeout =
  {
    routing;
    flow_timeout;
    flows = Flow_key.Table.create 64;
    sorted = None;
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
      t.sorted <- None;
      flow

(* The flows in key order, sorted once per change of membership. Float
   addition is order-sensitive, so link loads sum over the flows in this
   order: in hash order the load (and reroute choices near the
   threshold) would be nondeterministic. *)
let sorted_flows t =
  match t.sorted with
  | Some flows -> flows
  | None ->
      let flows =
        Flow_key.Table.fold_sorted (fun _ flow acc -> flow :: acc) t.flows []
        |> List.rev
      in
      t.sorted <- Some flows;
      flows

let expire t ~now =
  match
    List.filter
      (fun flow -> now - flow.last_heard > t.flow_timeout)
      (sorted_flows t)
  with
  | [] -> ()
  | dead ->
      List.iter (fun flow -> Flow_key.Table.remove t.flows flow.key) dead;
      t.sorted <- None

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

let rec crosses sw port = function
  | [] -> false
  | (s, p) :: rest -> (s = sw && p = port) || crosses sw port rest

let bottleneck t ~capacity ~exclude ~links =
  match links with
  | [] -> 0.0
  | links ->
      let flows = sorted_flows t in
      let load (sw, port) =
        List.fold_left
          (fun acc flow ->
            if flow == exclude then acc
            else if crosses sw port (path_links t flow) then acc +. flow.rate
            else acc)
          0.0 flows
      in
      List.fold_left
        (fun acc link -> min acc (capacity -. load link))
        infinity links

let set_route _t flow mac =
  flow.dst_mac <- mac;
  flow.commanded <- true
