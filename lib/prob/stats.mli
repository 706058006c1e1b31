(** Streaming and batch summary statistics.

    Welford's online algorithm keeps sojourn-time accumulation numerically
    stable over the tens of millions of samples a long simulation produces;
    replication summaries feed the tables' mean ± confidence columns. *)

type t
(** Mutable streaming accumulator (count, mean, M2). *)

val create : unit -> t
val reset : t -> unit
val add : t -> float -> unit
val count : t -> int
val total : t -> float

val mean : t -> float
(** Mean of the samples so far; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance (divisor [n-1]); [nan] when [n < 2]. *)

val stddev : t -> float

val ci95_halfwidth : t -> float
(** Half-width of a normal-approximation 95% confidence interval for the
    mean, [1.96·s/√n]; [nan] when [n < 2]. *)

val merge : t -> t -> t
(** Combined accumulator over both sample sets (Chan et al. update). *)

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
}

val summarize : float array -> summary
(** Batch summary; [mean]/[std]/extrema are [nan] on the empty array. *)

val quantile : float array -> float -> float
(** [quantile xs p] with [p ∈ [0,1]], linear interpolation between order
    statistics; sorts a copy. @raise Invalid_argument on empty input or
    [p] outside [[0,1]]. *)
