(* Shared fixtures for integration-flavoured tests: small single-switch
   and fat-tree networks with routing installed and ARP populated, and
   [case], the test-case wrapper that audits the buffer accounting of
   every switch a case built once its body returns. *)

module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Prng = Planck_util.Prng
module Engine = Planck_netsim.Engine
module Switch = Planck_netsim.Switch
module Host = Planck_netsim.Host
module Fabric = Planck_topology.Fabric
module Routing = Planck_topology.Routing
module Single_switch = Planck_topology.Single_switch
module Fat_tree = Planck_topology.Fat_tree
module Endpoint = Planck_tcp.Endpoint
module Flow = Planck_tcp.Flow

let rate_10g = Rate.gbps 10.0
let rate_1g = Rate.gbps 1.0

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  routing : Routing.t;
  endpoints : Endpoint.t array;
}

(* The switches of every fabric the running case built: through the
   helpers below, through [Planck.Experiment.run] (captured by the
   observer [case] installs), or handed over with [observe]. *)
let audited : Switch.t list ref = ref []

let audit_fabric fabric =
  for i = 0 to Fabric.switch_count fabric - 1 do
    audited := Fabric.switch fabric i :: !audited
  done

let observe (tb : Planck.Testbed.t) = audit_fabric tb.Planck.Testbed.fabric

let single_switch ?(hosts = 4) ?(rate = rate_10g) ?(seed = 42)
    ?(config = Switch.default_config) () =
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let fabric =
    Single_switch.build engine ~hosts ~switch_config:config ~link_rate:rate
      ~prng ()
  in
  let routing =
    Routing.create fabric ~alts:1 ~out_port:Single_switch.out_port
  in
  Routing.install routing;
  Fabric.populate_arp fabric;
  audit_fabric fabric;
  let endpoints =
    Array.init hosts (fun i -> Endpoint.create (Fabric.host fabric i))
  in
  { engine; fabric; routing; endpoints }

let fat_tree ?(k = 4) ?(rate = rate_10g) ?(seed = 42)
    ?(config = Switch.default_config) () =
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let fabric, shape =
    Fat_tree.build engine ~k ~switch_config:config ~link_rate:rate ~prng ()
  in
  let routing =
    Routing.create fabric ~alts:(Fat_tree.max_alts shape)
      ~out_port:(Fat_tree.out_port shape)
  in
  Routing.install routing;
  Fabric.populate_arp fabric;
  audit_fabric fabric;
  let endpoints =
    Array.init (Fabric.host_count fabric) (fun i ->
        Endpoint.create (Fabric.host fabric i))
  in
  (({ engine; fabric; routing; endpoints } : t), shape)

let start_flow t ~src ~dst ~size ?params () =
  Flow.start ~src:t.endpoints.(src) ~dst:t.endpoints.(dst)
    ~src_port:(10_000 + src) ~dst_port:(20_000 + dst) ~size ?params ()

let check_buffers switches =
  List.iter
    (fun sw ->
      match Switch.check_buffer sw with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    switches

(* Run [f], then check [Switch.check_buffer] on every switch it built.
   A body that raises skips the audit. *)
let audit f =
  audited := [];
  let result =
    Planck.Experiment.with_observer
      (fun tb _ ->
        observe tb;
        None)
      f
  in
  let switches = !audited in
  audited := [];
  check_buffers switches;
  result

let case name speed f = Alcotest.test_case name speed (fun () -> audit f)

(* A built executable of this tree, by its path from the build root
   ("bench/main.exe"). The test rules depend on every executable a case
   runs; cwd is _build/default/test under dune runtest and the
   workspace root under dune exec. A missing executable fails the case:
   a check that finds nothing to run has checked nothing. *)
let built_exe path =
  let candidates =
    [
      Filename.concat (Filename.dirname (Sys.getcwd ())) path;
      Filename.concat (Sys.getcwd ()) (Filename.concat "_build/default" path);
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> exe
  | None ->
      Alcotest.failf "%s is not built (looked for %s)" path
        (String.concat " and " candidates)
