(** A deterministic, splittable pseudo-random number generator.

    Experiments must be reproducible run-to-run, so every stochastic
    component (workload generators, ECMP hashing, jitter models) draws
    from an explicitly seeded [Prng.t] rather than the global [Random]
    state. The core is SplitMix64, which is fast and has no shared
    state. *)

type t

val create : seed:int -> t
(** A generator seeded with [seed]. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] is a new generator whose stream is independent of the
    subsequent outputs of [t]. Used to give each experiment run its own
    stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val derangement : t -> int -> int array
(** [permutation] with no fixed points ([p.(i) <> i] for all [i]) —
    used for random-bijection workloads where no host sends to itself.
    Raises [Invalid_argument] if [n < 2]. *)

val seed_of_string : string -> int
(** FNV-1a of the bytes: a deterministic seed for a named component
    (e.g. a switch), stable across runs and OCaml releases — unlike
    [Hashtbl.hash]. *)
