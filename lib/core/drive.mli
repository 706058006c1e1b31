(** Integrating a mean-field model: trajectories and fixed points.

    The paper's methodology is to (i) follow trajectories of the limiting
    differential equations and (ii) solve for the fixed point where all
    [dsᵢ/dt = 0], which predicts steady-state performance. Fixed points
    with no closed form are obtained here by a hybrid solver: adaptive
    Runge–Kutta relaxation carries the state down to a hand-over
    residual, then a pseudo-transient Newton corrector on a coloured,
    sparse-factorised Jacobian finishes the solve in a few steps,
    falling back to relaxation plus Aitken extrapolation whenever the
    corrector stalls or lands on a flat truncated tail. *)

type solver = [ `Rk4 | `Rk45 | `Newton ]
(** [`Rk4] — the seed path: fixed-step RK4 relaxation (plus Aitken/
    dominant-mode extrapolation when [accelerate]). [`Rk45] — the same
    loop over the adaptive Dormand–Prince pair. [`Newton] — adaptive
    relaxation to the hand-over residual, then the Newton corrector
    (the default). *)

val solver_name : solver -> string
(** ["rk4"], ["rk45"] or ["newton"] — stable CLI/JSON spelling. *)

type fixed_point = {
  state : Numerics.Vec.t;  (** Approximate fixed point. *)
  residual : float;  (** [‖ds/dt‖∞] at [state]. *)
  converged : bool;  (** Whether [residual ≤ tol] was reached. *)
  elapsed : float;
      (** Simulated relaxation time used by the integration phases
          (Newton steps are algebraic and do not advance it). *)
  evals : int;
      (** Derivative evaluations consumed — the solver cost. The
          one-off probe that finds a structure's sparsity pattern is
          not charged to any solve (see {!probe_evals}). *)
  iterations : int;
      (** Solver-loop iterations: relaxation chunks, extrapolation
          attempts and Newton steps combined. *)
  method_used : solver;
      (** Which path produced the returned state; a hybrid solve that
          fell back from the corrector reports the fallback method, and
          a {!fixed_point_batch} column finished in lockstep reports
          [`Rk45]. *)
}

val fixed_point :
  ?tol:float ->
  ?max_time:float ->
  ?accelerate:bool ->
  ?solver:solver ->
  ?start:[ `Empty | `Warm | `State of Numerics.Vec.t ] ->
  ?basin:float ->
  Model.t ->
  fixed_point
(** Solve the model for its fixed point. Defaults: [tol = 1e-11],
    [max_time = 2e5], [accelerate = true], [solver = `Newton],
    [start = `Warm]. Every step size derives from the model's own
    {!Model.t.suggested_dt}: the RK4 step and the adaptive pair's first
    step. The returned state is freshly allocated. Convergence always
    means the exact residual [‖ds/dt‖∞ ≤ tol], whatever the method;
    [max_time] bounds the simulated relaxation time. With
    [accelerate = false] every algebraic acceleration (Aitken and the
    corrector) is disabled, leaving pure relaxation — the ablation
    knob. [start = `State s] requires [s] to have the model's
    dimension; sweeps use it to warm-start each solve from the
    neighbouring λ's fixed point (see {!Continuation.along_lambda}).

    [basin] (default [1e-4]) is the hand-over residual below which the
    [`Newton] hybrid stops relaxing and starts the corrector; warm
    starts from a nearby λ's fixed point can raise it to skip the
    transport phase entirely. The corrector solves
    [(σI − J)δ = f(x)] with [σ = max(1e-7, residual)] on a
    forward-difference Jacobian over the model's sparsity
    {!Model.structure} (found, coloured and symbolically factorised
    once per key), takes a step only when it passes the model's
    [validate] without doubling the residual (otherwise [σ] grows
    tenfold), and gives up after 60 steps. Its answer is refused when
    it gave up or when {!flat_tail} holds; relaxation then finishes
    from the hand-over state, costing at worst one bounded detour. *)

val flat_tail : Model.t -> Numerics.Vec.t -> bool
(** Whether some tail segment of the state ends flat: its boundary
    ratio [s_K/s_{K-1}] is at least 0.99999 while its last level is
    above 1e-18 of the segment's head mass (the larger of its levels 0
    and 1). Genuine fixed-point tails decay geometrically — even
    Erlang c = 20 at λ = 0.99 reads 0.9995 per stage level — but the
    0.999999 closure clamp makes any flat deep tail an exact zero of the
    truncated equations, whose [mean_tasks] closure then adds
    [s_K·10⁶]. *)

val structure_of : Model.t -> Numerics.Sparse.structure
(** The model's analysed sparsity structure (pattern, colouring,
    symbolic LU), probed and analysed on the first request for its
    {!Model.structure} key and shared by every later one. *)

val probe_evals : unit -> int
(** Derivative evaluations spent so far in this process on probing
    sparsity patterns, once per {!Model.structure} key. *)

val residual : Model.t -> Numerics.Vec.t -> float
(** [‖ds/dt‖∞] at the given state. *)

val default_basin : float
(** The default hand-over residual (1e-4) used by {!fixed_point} and
    {!fixed_point_batch} when no [basin] is given — exposed so callers
    building per-column [basins] arrays can give cold columns the
    solver's own conservative default. *)

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
    hand-over residuals (defaults [`Warm] and the scalar basin).
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
