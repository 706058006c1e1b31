(** Samplers for the distributions used in the paper's models.

    The dynamic model has Poisson arrivals and exponential service
    (Section 2.1); Section 3.1 studies constant service times, approximated
    in the differential equations by Erlang stages, and notes that any
    positive distribution can be approached by gamma mixtures — the
    {!service} type covers the family the simulator exercises. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with the given rate (mean [1/rate]).
    @raise Invalid_argument if [rate <= 0]. *)

val erlang : Rng.t -> k:int -> rate:float -> float
(** Sum of [k] independent exponentials of rate [rate] (mean [k/rate]). *)

val poisson : Rng.t -> mean:float -> int
(** Poisson-distributed count. Multiplication method for small means,
    gaussian-free PTRD-style envelope is avoided by splitting large means
    into halves (exact, if slower, for the moderate means used here). *)

val geometric : Rng.t -> mean:float -> int
(** Geometric on [{1, 2, …}] with the given mean ([≥ 1]), by inversion;
    [mean = 1] is the constant 1. Batch sizes for bursty arrivals. *)

val pareto : Rng.t -> alpha:float -> xmin:float -> float
(** Pareto (heavy-tailed) sample by inversion; used in service-time
    sensitivity examples. @raise Invalid_argument unless [alpha > 0] and
    [xmin > 0]. *)

(** Service-time distribution family, all normalised to mean 1; the
    simulator divides samples by a processor's speed. *)
type service =
  | Exponential  (** Memoryless, mean 1: the paper's base model. *)
  | Deterministic  (** Constant 1: the Section 3.1 target distribution. *)
  | Erlang_stages of int
      (** [Erlang_stages c]: sum of [c] exponential stages of rate [c] —
          the paper's approximation of constant service. *)
  | Hyperexp of { p : float; mean1 : float; mean2 : float }
      (** Mixture: with probability [p] exponential of mean [mean1], else
          mean [mean2]; rescaled to overall mean 1. More variable than
          exponential. *)

val service_mean_one : Rng.t -> service -> float
(** One mean-1 service sample from the given family. *)

val service_scv : service -> float
(** Squared coefficient of variation of the family (variance at mean 1):
    1 for exponential, 0 for deterministic, [1/c] for Erlang stages. *)

val pp_service : Format.formatter -> service -> unit
