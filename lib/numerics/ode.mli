(** Initial-value ODE integrators for autonomous and non-autonomous systems
    [dy/dt = f(t, y)] over dense float vectors.

    The mean-field limits of the paper's work-stealing systems are families
    of ordinary differential equations over tail densities; this module
    provides the integrators used to follow their trajectories and to relax
    them to their fixed points.

    Derivative functions write in place into a caller-supplied buffer so
    that the inner integration loops allocate nothing. *)

type system = {
  dim : int;  (** State dimension. *)
  deriv : t:float -> y:Vec.t -> dy:Vec.t -> unit;
      (** [deriv ~t ~y ~dy] writes dy/dt at time [t], state [y] into [dy]. *)
}

type workspace
(** Pre-allocated scratch buffers for a given state dimension. A workspace
    may be reused across calls but not shared between concurrent
    integrations. *)

val workspace : system -> workspace
(** Allocate scratch space sized for [system]. *)

(** {1 Fixed-step methods} *)

val euler_step : system -> workspace -> t:float -> dt:float -> Vec.t -> unit
(** Forward Euler; first order. Updates the state in place. *)

val midpoint_step :
  system -> workspace -> t:float -> dt:float -> Vec.t -> unit
(** Explicit midpoint (RK2); second order. *)

val rk4_step : system -> workspace -> t:float -> dt:float -> Vec.t -> unit
(** Classical Runge–Kutta; fourth order. *)

type stepper = Euler | Midpoint | Rk4

val integrate :
  ?stepper:stepper ->
  system ->
  y:Vec.t ->
  t0:float ->
  t1:float ->
  dt:float ->
  unit
(** [integrate sys ~y ~t0 ~t1 ~dt] advances [y] in place from [t0] to [t1]
    with fixed steps of (at most) [dt]; the final step is shortened to land
    exactly on [t1]. Default stepper is {!Rk4}. *)

val observe :
  ?stepper:stepper ->
  system ->
  y:Vec.t ->
  t0:float ->
  t1:float ->
  dt:float ->
  sample_every:float ->
  (float -> Vec.t -> unit) ->
  unit
(** Like {!integrate} but invokes the callback at [t0], then at every
    multiple of [sample_every], and finally at [t1]. The callback must not
    retain the state vector (copy it if needed). *)

(** {1 Adaptive methods} *)

type stats = {
  accepted : int;  (** Steps taken. *)
  rejected : int;  (** Attempts discarded by the error test. *)
  evals : int;  (** Derivative evaluations, the solver cost unit. *)
}

val no_stats : stats
(** All-zero statistics, the identity for aggregation. *)

val adaptive :
  ?rtol:float ->
  ?atol:float ->
  ?dt0:float ->
  ?dt_min:float ->
  ?dt_max:float ->
  ?max_steps:int ->
  ?ws:workspace ->
  system ->
  y:Vec.t ->
  t0:float ->
  t1:float ->
  stats
(** The embedded Dormand–Prince 5(4) pair with PI (Gustafsson) step-size
    control. Advances [y] in place from [t0] to [t1]; the final step is
    shortened to land exactly on [t1]. The error test uses the scaled max
    norm [max_i |e_i| / (atol + rtol·|y_i|)]; accepted steps grow or
    shrink the step through a PI controller clamped to the factor range
    [0.2, 5.0] (no growth immediately after a rejection), rejected steps
    shrink it. The pair is FSAL: an accepted step's last stage is reused
    as the next step's first, so each attempt costs 6 fresh derivative
    evaluations and only the very first step pays a 7th. Passing [ws]
    reuses caller-allocated scratch space, making the whole run
    allocation-free.

    Defaults: [rtol = 1e-8], [atol = 1e-12],
    [dt0 = (t1-t0)/100], [dt_max = ∞], [max_steps = 10_000_000].

    @raise Failure if the step size falls below [dt_min] (default: the
    representable-progress threshold [1e-14·max(1,|t|)]) or [max_steps]
    attempts are made. *)

(** {1 Batched lockstep integration}

    K independent instances of one system family (same flow-graph
    structure, different rate constants) integrate together over a
    structure-of-arrays state matrix (rows = components, columns =
    instances). Every Runge–Kutta stage is a single derivative sweep
    shared by all still-active columns, so the per-step bookkeeping and
    memory traffic are amortised K ways; each column keeps its own time,
    step size and PI controller, and a column that reaches [t1] is
    dropped from the active set and its state is frozen bit-for-bit. *)

type batch_system = {
  bdim : int;  (** State dimension (matrix rows). *)
  bcols : int;  (** Batch width (matrix columns). *)
  bderiv : ys:Mat.t -> dys:Mat.t -> cols:Active.t -> unit;
      (** Writes ds/dt column-wise for every column listed in [cols];
          other columns of [dys] must not be read or written. Autonomous
          (no time argument), like every system in the paper. *)
}

type batch_workspace = {
  bk1 : Mat.t;
  bk2 : Mat.t;
  bk3 : Mat.t;
  bk4 : Mat.t;
  bk5 : Mat.t;
  bk6 : Mat.t;
  bk7 : Mat.t;
  btmp : Mat.t;
  btrial : Mat.t;
  bts : float array;
  bhs : float array;
  bhh : float array;
  berr : float array;
  berr_prev : float array;
  bjust_rejected : bool array;
  bworking : Active.t;
  baccepted : int array;
  brejected : int array;
  bevals : int array;
      (** Scalar-equivalent derivative evaluations per column — what a
          scalar solve of that column alone would have paid. *)
  bfailed : bool array;
      (** Set for columns retired by step-size underflow or the
          [max_steps] budget (the batched analogue of the scalar path's
          exceptions); their state holds the last accepted step. *)
  mutable brounds : int;
      (** Batched derivative sweeps performed — the batch cost unit: one
          round costs one sweep no matter how many columns share it. *)
}
(** Scratch + per-column controller state. Reusable across calls, not
    shareable between concurrent integrations. Stats fields
    ([baccepted], [brejected], [bevals], [bfailed], [brounds]) are
    reset by {!adaptive_cols} and hold the last call's counts. *)

val batch_workspace : batch_system -> batch_workspace

val adaptive_cols :
  ?rtol:float ->
  ?atol:float ->
  ?dt0s:float array ->
  ?dt_max:float ->
  ?max_steps:int ->
  ?ws:batch_workspace ->
  batch_system ->
  ys:Mat.t ->
  cols:Active.t ->
  t0:float ->
  t1:float ->
  batch_workspace
(** Advance every column of [ys] listed in [cols] from [t0] to [t1] in
    lockstep, with the same embedded pair and PI step control as
    {!adaptive} applied per column ([dt0s] gives each column its own
    initial step; default [(t1-t0)/100] for all). [cols] itself is not
    modified; the call works on an internal copy and drops columns as
    they finish or fail. Returns the workspace used (the [?ws] argument
    when given) so callers can read the per-column statistics. Unlike
    {!adaptive}, step-size underflow and step-budget exhaustion do not
    raise: the column is marked in [bfailed] and retired. *)

(** {1 Steady state} *)

type steady_outcome = Converged of float | Timed_out of float
    (** Payload is the final residual [‖dy/dt‖∞]. *)

val relax :
  ?stepper:stepper ->
  ?dt:float ->
  ?tol:float ->
  ?check_every:float ->
  ?max_time:float ->
  system ->
  y:Vec.t ->
  steady_outcome
(** [relax sys ~y] integrates from [t = 0] in chunks of [check_every]
    (default [25.0]) time units until the residual [‖dy/dt‖∞] at the chunk
    boundary drops below [tol] (default [1e-12]) or [max_time] (default
    [1e6]) simulated time units elapse. [y] is updated in place and holds
    the (approximate) fixed point on return. Default [dt = 0.1]. *)
