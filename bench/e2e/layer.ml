(* The layers a CPU sample is charged to: the lib/ libraries, with
   util and netsim split into the modules the hot path runs through.
   lib/baselines and lib/sflow are left out because no workload runs
   them; a sample there would land in [other]. *)

let all =
  [|
    "util.timer_wheel";
    "util.heap";
    "util.other";
    "netsim.engine";
    "netsim.txport";
    "netsim.switch";
    "netsim.host";
    "netsim.sink";
    "netsim.shard";
    "netsim.other";
    "packet";
    "tcp";
    "collector";
    "sketch";
    "controller";
    "openflow";
    "topology";
    "workloads";
    "core";
    "telemetry";
    "other";
  |]

let count = Array.length all
let other = count - 1

let index name =
  let rec go i =
    if i = count then other else if all.(i) = name then i else go (i + 1)
  in
  go 0

let split_modules = function
  | "util" -> [ "timer_wheel"; "heap" ]
  | "netsim" -> [ "engine"; "txport"; "switch"; "host"; "sink"; "shard" ]
  | _ -> []

(* [file] is a debug-info source path, relative to the dune workspace
   root ("lib/netsim/switch.ml"). *)
let of_file file =
  match String.split_on_char '/' file with
  | [ "lib"; dir; base ] when Filename.check_suffix base ".ml" -> (
      let m = Filename.chop_suffix base ".ml" in
      match split_modules dir with
      | [] -> all.(index dir)
      | ms -> dir ^ "." ^ if List.mem m ms then m else "other")
  | _ -> "other"

let is_lib_file file = String.length file > 4 && String.sub file 0 4 = "lib/"
