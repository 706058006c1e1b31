(** A mean-field work-stealing model: a family of differential equations
    over (stacked) tail-density vectors, in the sense of Section 2 of the
    paper, together with the bookkeeping needed to extract performance
    metrics from a state.

    Each variant module ({!Simple_ws}, {!Threshold_ws}, …) builds one of
    these records; {!Drive} integrates it, and {!Metrics} reads it out. *)

type structure = {
  key : string;
      (** What fixes the Jacobian's sparsity pattern: the model kind,
          its integer parameters and [dim] ({!structure} spells it).
          Models with equal keys share one pattern, colouring and
          symbolic LU. *)
  probe : y:Numerics.Vec.t -> dy:Numerics.Vec.t -> unit;
      (** The kind's derivative with every float parameter at
          {!generic}: the pattern is probed on it, so it depends on the
          key alone and not on which rates the first solve of the key
          happened to have. *)
}

type t = {
  name : string;  (** Human-readable variant name with parameters. *)
  dim : int;  (** Length of the packed state vector. *)
  throughput : float;
      (** Total external task arrival rate per processor — the [λ] of
          Little's law. 0 for static (drain) systems. *)
  deriv : y:Numerics.Vec.t -> dy:Numerics.Vec.t -> unit;
      (** Writes [ds/dt] at state [y]. Autonomous: the paper's systems do
          not depend on absolute time. Must hold conserved coordinates
          (class masses) at derivative 0. *)
  deriv_cols :
    (ys:Numerics.Mat.t ->
    dys:Numerics.Mat.t ->
    cols:Numerics.Active.t ->
    unit)
    option;
      (** Hand-batched column-wise derivative for lockstep multi-λ
          solves: column [k] of [ys] is the state of batch member [k],
          and the closure writes ds/dt for every column listed in [cols]
          (other columns of [dys] must be left alone). A family's batch
          builder attaches {e one shared closure} (closed over the λ
          array) to every member, so {!batch_deriv} can recognise a
          uniform batch by physical equality. [None] for models built
          singly; the scalar [deriv] is always authoritative. *)
  initial_empty : unit -> Numerics.Vec.t;
      (** The all-idle state — the paper's simulations start here. *)
  initial_warm : unit -> Numerics.Vec.t;
      (** A valid state near the expected fixed point (typically the
          no-stealing M/M/1 tail), which shortens relaxation. *)
  mean_tasks : Numerics.Vec.t -> float;
      (** Expected tasks per processor in the given state, including any
          in-transit tasks (transfer model) and all population classes. *)
  predicted_tail_ratio : (Numerics.Vec.t -> float) option;
      (** Where the paper derives a geometric decay rate for the
          fixed-point tail, the formula evaluated at a state (e.g.
          [λ/(1+λ-π₂)]); used to cross-check numerics. *)
  validate : Numerics.Vec.t -> bool;
      (** State-shape invariant check used by tests and the driver. *)
  suggested_dt : float;
      (** A fixed RK4 step size safely inside the system's stability
          region (the Erlang-stage systems have event rates of order [c]
          and need proportionally smaller steps). *)
  structure : structure;
  segments : (int * int) list;
      (** The tail segments [(off, depth)] the state packs: levels
          [y.(off) .. y.(off + depth)] of one population, closed
          geometrically past [depth]. A single-tail model has one,
          [(0, dim - 1)]. The solver refuses a fixed point whose
          segment ends flat (see {!Drive.fixed_point}). *)
}

val generic : float
(** The value (0.618…) every float parameter takes in a
    {!structure.probe}: positive, below 1 and not a round number, so no
    term of any family vanishes by coincidence. *)

val structure :
  kind:string ->
  ?ints:int list ->
  dim:int ->
  (y:Numerics.Vec.t -> dy:Numerics.Vec.t -> unit) ->
  structure
(** [structure ~kind ~ints ~dim probe] keys [probe] by
    ["kind,dim,ints…"]. *)

val as_system : t -> Numerics.Ode.system
(** View for the ODE integrators. *)

val mean_time : t -> Numerics.Vec.t -> float
(** Expected time a task spends in the system at the given (fixed-point)
    state, by Little's law: [E[T] = E[N] / λ]. [nan] when
    [throughput = 0]. *)

val of_single_tail :
  name:string ->
  kind:string ->
  ?ints:int list ->
  lambda:float ->
  dim:int ->
  deriv:(y:Numerics.Vec.t -> dy:Numerics.Vec.t -> unit) ->
  probe:(y:Numerics.Vec.t -> dy:Numerics.Vec.t -> unit) ->
  ?deriv_cols:(ys:Numerics.Mat.t ->
              dys:Numerics.Mat.t ->
              cols:Numerics.Active.t ->
              unit) ->
  ?predicted_tail_ratio:(Numerics.Vec.t -> float) ->
  ?warm_ratio:float ->
  ?suggested_dt:float ->
  unit ->
  t
(** Builder for the common case of a single tail vector with mass 1:
    fills in initial states (warm start is a geometric tail of ratio
    [warm_ratio], default [lambda]), mean-task accounting, validation,
    the one tail segment and the {!structure} of [kind], [ints] and
    [dim] over [probe]. *)

val batch_deriv :
  t array ->
  (ys:Numerics.Mat.t -> dys:Numerics.Mat.t -> cols:Numerics.Active.t -> unit)
  * bool
(** [batch_deriv models] selects the column-wise derivative for a batch:
    the shared hand-batched kernel when every member carries the {e same}
    [deriv_cols] closure (flag [true]), otherwise a scalar-bridge
    adapter that stages each active column through preallocated scratch
    and calls that column's own [deriv] (flag [false]). All members must
    share one [dim].

    @raise Invalid_argument on an empty batch or mixed dimensions. *)
