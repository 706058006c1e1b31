(** Integrating a mean-field model: trajectories and fixed points.

    The paper's methodology is to (i) follow trajectories of the limiting
    differential equations and (ii) solve for the fixed point where all
    [dsᵢ/dt = 0], which predicts steady-state performance. Fixed points
    with no closed form are obtained here by a hybrid solver: adaptive
    Runge–Kutta relaxation carries the state into the basin of the fixed
    point, then Anderson mixing on the algebraic map [s ← s + h·ds/dt]
    finishes the solve in a handful of derivative evaluations, falling
    back to relaxation plus Aitken extrapolation whenever the mixing
    stalls or leaves the model's domain. *)

type solver = [ `Rk4 | `Rk45 | `Anderson ]
(** [`Rk4] — the seed path: fixed-step RK4 relaxation (plus Aitken/
    dominant-mode extrapolation when [accelerate]). [`Rk45] — the same
    loop over the adaptive Dormand–Prince pair. [`Anderson] — adaptive
    relaxation into the basin, then Anderson mixing (the default). *)

val solver_name : solver -> string
(** ["rk4"], ["rk45"] or ["anderson"] — stable CLI/JSON spelling. *)

type fixed_point = {
  state : Numerics.Vec.t;  (** Approximate fixed point. *)
  residual : float;  (** [‖ds/dt‖∞] at [state]. *)
  converged : bool;  (** Whether [residual ≤ tol] was reached. *)
  elapsed : float;
      (** Simulated relaxation time used by the integration phases
          (Anderson iterations are algebraic and do not advance it). *)
  evals : int;  (** Derivative evaluations consumed — the solver cost. *)
  iterations : int;
      (** Solver-loop iterations: relaxation chunks, extrapolation
          attempts and Anderson steps combined. *)
  method_used : solver;
      (** Which path produced the returned state; a hybrid solve that
          fell back from Anderson reports the fallback method. *)
}

val fixed_point :
  ?dt:float ->
  ?tol:float ->
  ?max_time:float ->
  ?accelerate:bool ->
  ?solver:solver ->
  ?start:[ `Empty | `Warm | `State of Numerics.Vec.t ] ->
  ?basin:float ->
  Model.t ->
  fixed_point
(** Solve the model for its fixed point. Defaults: [dt] from
    {!Model.t.suggested_dt}, [tol = 1e-11], [max_time = 2e5],
    [accelerate = true], [solver = `Anderson], [start = `Warm]. The
    returned state is freshly allocated. Convergence always means the
    exact residual [‖ds/dt‖∞ ≤ tol], whatever the method; [max_time]
    bounds the simulated relaxation time as before. With
    [accelerate = false] every algebraic acceleration (Aitken and
    Anderson) is disabled, leaving pure relaxation — the ablation knob.
    [start = `State s] requires [s] to have the model's dimension; sweeps
    use it to warm-start each solve from the neighbouring λ's fixed point
    (see [Experiments.Sweep]). [basin] (default [1e-4]) is the residual
    below which the [`Anderson] hybrid hands the relaxation phase over to
    Anderson mixing; warm starts from a nearby λ's fixed point can raise
    it to skip the transport phase entirely — the mixing is safe to enter
    early there because a stall or domain escape falls back to
    relaxation, costing at worst one bounded detour. *)

val residual : Model.t -> Numerics.Vec.t -> float
(** [‖ds/dt‖∞] at the given state. *)

val default_basin : float
(** The default Anderson hand-over residual (1e-4) used by
    {!fixed_point} and {!fixed_point_batch} when no [basin] is given —
    exposed so callers building per-column [basins] arrays can give
    cold columns the solver's own conservative default. *)

type batch_stats = {
  rounds : int;
      (** Batched derivative sweeps the whole solve performed — the true
          cost unit: one sweep serves every then-active column, where a
          scalar solve pays one evaluation per column for the same work. *)
  hand_batched : bool;
      (** Whether the family's hand-batched [deriv_cols] kernel ran
          (versus the scalar-bridge adapter). *)
}

val fixed_point_batch :
  ?tol:float ->
  ?max_time:float ->
  ?starts:[ `Empty | `Warm | `State of Numerics.Vec.t ] array ->
  ?basins:float array ->
  Model.t array ->
  fixed_point array * batch_stats
(** Solve K same-family fixed points in lockstep over one SoA state
    matrix: batched RK45 transport into each column's basin (per-column
    PI step control; a finished or failed column is frozen and dropped
    from the active set), then column-wise Anderson mixing. Result slot
    [k] corresponds to [models.(k)], with the same meaning as a
    {!fixed_point} from the scalar solver — convergence is re-certified
    against the column's own scalar derivative, and columns the lockstep
    path cannot finish are completed by the scalar solver from their
    best iterate. [starts]/[basins] give per-column start states and
    Anderson hand-over residuals (defaults [`Warm] and the scalar basin).
    All models must share one [dim]; the batch runs single-threaded.

    Per-column [evals] count scalar-equivalent evaluations (each batched
    sweep a column participated in, plus any scalar-fallback work); the
    returned {!batch_stats} carry the batched sweep count, which is what
    wall-clock tracks. Defaults: [tol = 1e-11], [max_time = 2e5]. *)

val trajectory :
  ?dt:float ->
  ?adaptive:bool ->
  ?rtol:float ->
  ?start:[ `Empty | `Warm | `State of Numerics.Vec.t ] ->
  horizon:float ->
  sample_every:float ->
  Model.t ->
  (float * Numerics.Vec.t) list
(** Sampled trajectory from the chosen start; each sample is a fresh copy,
    in increasing time order, including both endpoints. Default
    [start = `Empty] (matching how the paper's simulations begin),
    [dt = 0.05]. With [adaptive = true] the segments between samples are
    integrated by the Dormand–Prince pair at [rtol] (default [1e-10],
    i.e. well below the tables' printed precision) instead of fixed-step
    RK4, using [dt] only as the initial step guess. *)
