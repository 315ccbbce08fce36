(** Shared utilities for the Planck reproduction: simulated time, an
    int-valued min-heap, array FIFOs, int hash tables, the engine's
    exact-time event queue, ring buffers, an SPSC channel,
    deterministic PRNG, statistics, data rates and table rendering. *)

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
