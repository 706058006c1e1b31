(** The no-stealing reference system (Section 2.2's baseline).

    Each processor is an independent M/M/1 queue; the limiting equations
    are the paper's equation (1):
    [dsᵢ/dt = λ(s_{i-1} - sᵢ) - (sᵢ - s_{i+1})], with fixed point
    [πᵢ = λⁱ]. Every other model is compared against this baseline. *)

val model : lambda:float -> ?dim:int -> unit -> Model.t
(** The model's [initial_warm] is its closed-form fixed point, so a
    solve from the default start converges at once. It has no
    hand-batched [deriv_cols] kernel: a {!Drive.fixed_point_batch} of
    mm1 models runs the scalar bridge.
    @raise Invalid_argument unless [0 ≤ lambda < 1]. *)

val fixed_point_exact : lambda:float -> dim:int -> Numerics.Vec.t
(** [πᵢ = λⁱ]. *)

val mean_time_exact : lambda:float -> float
(** [E[T] = 1/(1-λ)] (M/M/1 with unit service rate). *)

val mean_tasks_exact : lambda:float -> float
(** [E[N] = λ/(1-λ)]. *)
