(** Shared utilities for the Planck reproduction: simulated time, event
    heap, array FIFOs, ring buffers, deterministic PRNG, statistics,
    data rates and table rendering. *)

module Time = Time
module Heap = Heap
module Fifo = Fifo
module Timer_wheel = Timer_wheel
module Ring = Ring
module Spsc = Spsc
module Prng = Prng
module Stats = Stats
module Rate = Rate
module Table = Table
