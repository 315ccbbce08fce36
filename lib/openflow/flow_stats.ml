module Flow_key = Planck_packet.Flow_key
module Packet = Planck_packet.Packet
module Mac = Planck_packet.Mac
module Switch = Planck_netsim.Switch

type counter = {
  key : Flow_key.t;
  bytes : int;
  packets : int;
  dst_mac : Mac.t;
}

type cell = {
  mutable cell_bytes : int;
  mutable cell_packets : int;
  mutable cell_mac : Mac.t;
}

type t = { cells : cell Flow_key.Table.t }

let attach switch =
  let t = { cells = Flow_key.Table.create 64 } in
  Switch.add_forward_tap switch (fun ~in_port:_ ~out_port:_ packet ->
      match Flow_key.of_packet packet with
      | None -> ()
      | Some key ->
          let cell =
            match Flow_key.Table.find_opt t.cells key with
            | Some cell -> cell
            | None ->
                let cell =
                  {
                    cell_bytes = 0;
                    cell_packets = 0;
                    cell_mac = Packet.dst_mac packet;
                  }
                in
                Flow_key.Table.replace t.cells key cell;
                cell
          in
          cell.cell_bytes <- cell.cell_bytes + Packet.wire_size packet;
          cell.cell_packets <- cell.cell_packets + 1;
          cell.cell_mac <- Packet.dst_mac packet);
  t

let snapshot t =
  Flow_key.Table.fold_sorted
    (fun key cell acc ->
      {
        key;
        bytes = cell.cell_bytes;
        packets = cell.cell_packets;
        dst_mac = cell.cell_mac;
      }
      :: acc)
    t.cells []

(* The switch CPU walks the counters during the read, so the values the
   controller gets are the ones present when the read finishes. *)
let poll t ~channel k =
  Control_channel.read_stats channel (fun () -> k (snapshot t))

let flow_count t = Flow_key.Table.length t.cells
