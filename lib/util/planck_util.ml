(** Shared utilities for the Planck reproduction: simulated time, event
    heap, array FIFOs, int hash tables, ring buffers, deterministic PRNG,
    statistics, data rates and table rendering. *)

module Time = Time
module Heap = Heap
module Fifo = Fifo
module Int_table = Int_table
module Timer_wheel = Timer_wheel
module Ring = Ring
module Spsc = Spsc
module Prng = Prng
module Stats = Stats
module Rate = Rate
module Table = Table
