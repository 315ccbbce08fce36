type shape = {
  k : int;
  pods : int;
  cores : int;
  aggs_per_pod : int;
  edges_per_pod : int;
  hosts_per_edge : int;
  num_switches : int;
  num_hosts : int;
}

let shape ~k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Fat_tree.shape: k must be even and >= 2";
  let half = k / 2 in
  let cores = half * half in
  {
    k;
    pods = k;
    cores;
    aggs_per_pod = half;
    edges_per_pod = half;
    hosts_per_edge = half;
    num_switches = cores + (k * half * 2);
    num_hosts = k * half * half;
  }

let core_id _ c = c
let agg_id s ~pod i = s.cores + (pod * s.aggs_per_pod) + i

let edge_id s ~pod j =
  s.cores + (s.pods * s.aggs_per_pod) + (pod * s.edges_per_pod) + j

let host_of s ~pod ~edge ~slot =
  (pod * s.edges_per_pod * s.hosts_per_edge) + (edge * s.hosts_per_edge) + slot

let pod_of_host s h = h / (s.edges_per_pod * s.hosts_per_edge)

(* Port conventions (all switches have k data ports + 1 monitor port):
   - edge(p,j):  ports 0..k/2-1 down to hosts, port k/2+i up to agg i
   - agg(p,i):   ports 0..k/2-1 down to edge j, port k/2+m up to core
                 i*(k/2)+m
   - core(c):    port p down to pod p (agg index c/(k/2))
   - monitor:    port k everywhere *)

(* Agg-core links model the longer cable runs up to the core tier — and
   under sharding they are the only shard-crossing links (pod-granular
   partition), so their delay is the lookahead bound. 5 µs is ~1 km of
   fibre, a plausible core run and a workable synchronization window. *)
let default_core_prop_delay = Planck_util.Time.us 5

let build engine ~k ~switch_config ~link_rate ?host_stack ?sharding
    ?core_prop_delay ~prng () =
  let s = shape ~k in
  let half = k / 2 in
  let fabric =
    Fabric.build engine ~switch_ports:(k + 1) ~switch_config ~link_rate
      ?host_stack ?sharding ~num_switches:s.num_switches
      ~num_hosts:s.num_hosts ~prng ()
  in
  for pod = 0 to s.pods - 1 do
    for j = 0 to s.edges_per_pod - 1 do
      let edge = edge_id s ~pod j in
      (* Hosts below the edge switch. *)
      for slot = 0 to s.hosts_per_edge - 1 do
        Fabric.wire_host fabric
          ~host:(host_of s ~pod ~edge:j ~slot)
          ~switch:edge ~port:slot
      done;
      (* Uplinks edge -> aggregation. *)
      for i = 0 to s.aggs_per_pod - 1 do
        Fabric.wire_switches fabric ~a:edge ~port_a:(half + i)
          ~b:(agg_id s ~pod i) ~port_b:j
      done
    done;
    (* Uplinks aggregation -> core. *)
    for i = 0 to s.aggs_per_pod - 1 do
      for m = 0 to half - 1 do
        let core = (i * half) + m in
        Fabric.wire_switches ?prop_delay:core_prop_delay fabric
          ~a:(agg_id s ~pod i) ~port_a:(half + m) ~b:(core_id s core)
          ~port_b:pod
      done
    done
  done;
  for sw = 0 to s.num_switches - 1 do
    Fabric.reserve_monitor fabric ~switch:sw ~port:k
  done;
  (fabric, s)

let max_alts s = s.cores
let core_for s ~dst ~alt = (dst + alt) mod s.cores

(* [core_for] from [r = dst mod cores] (a pod holds [cores] hosts): no
   division while [alt < cores]. *)
let[@inline] core_of s r ~alt =
  let c = r + alt in
  if c < s.cores then c else c mod s.cores

(* Tier and position are decoded once per switch, not per lookup. *)
let out_port s ~switch =
  let half = s.k / 2 and cores = s.cores in
  let first_edge = cores + (s.pods * s.aggs_per_pod) in
  if switch < cores then (fun ~dst ~alt ->
    (* Core: down to the destination pod, if it is the tree's core. *)
    let pod = dst / cores in
    if core_of s (dst - (pod * cores)) ~alt = switch then pod else -1)
  else if switch < first_edge then (
    let pod = (switch - cores) / half and i = (switch - cores) mod half in
    fun ~dst ~alt ->
      (* Aggregation [core / half] of every pod is on the tree: down to
         the destination edge in its pod, up to the core elsewhere. *)
      let dst_pod = dst / cores in
      let r = dst - (dst_pod * cores) in
      let core = core_of s r ~alt in
      let agg = core / half in
      if agg <> i then -1
      else if dst_pod = pod then r / half
      else half + (core - (agg * half)))
  else
    let first_host = (switch - first_edge) * half in
    fun ~dst ~alt ->
      (* Edge of hosts [first_host ..]: down to the host, or up to the
         tree's aggregation switch. *)
      let slot = dst - first_host in
      if slot >= 0 && slot < half then slot
      else half + (core_of s (dst mod cores) ~alt / half)
