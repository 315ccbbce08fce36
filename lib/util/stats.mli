(** Descriptive statistics for experiment reporting. *)

val mean : float list -> float
(** Arithmetic mean; [nan] on the empty list. *)

val stddev : float list -> float
(** Sample standard deviation (n-1 denominator); [0.] for fewer than two
    samples. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0,100\]], linear interpolation between
    closest ranks. [nan] on the empty list. Raises [Invalid_argument] for
    [p] outside [\[0,100\]]. *)

val median : float list -> float

val cdf : float list -> (float * float) list
(** [cdf xs] is the empirical CDF as [(value, cumulative fraction)]
    points, sorted by value, suitable for printing a CDF series. *)

val mean_relative_error : truth:float list -> estimate:float list -> float
(** Mean of [|estimate - truth| / truth] over paired samples, skipping
    pairs whose truth is 0. Raises [Invalid_argument] on length
    mismatch. *)

val histogram : bins:int -> float list -> (float * int) array
(** [histogram ~bins xs] buckets [xs] into [bins] equal-width bins over
    the data range; each cell is [(bin lower edge, count)]. *)

module Online : sig
  (** Streaming mean/variance (Welford), used where retaining every
      sample would be wasteful. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
  val stddev : t -> float
end
