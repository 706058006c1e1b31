(** Warm-start continuation along the fixed-point curve.

    The fixed point of every model family in this repository varies
    continuously (and smoothly, away from stability boundaries) with the
    arrival rate λ. Starting a solve from the fixed point of a {e nearby}
    λ therefore skips the relaxation transport phase — the dominant cost
    near λ → 1 — and lands directly below the hand-over residual, where
    the Newton corrector converges in a handful of steps.

    Two callers share this logic: the serial λ-sweeps of the paper
    tables and experiments ({!along_lambda}, whose nearest neighbour is
    the previous point of its ascending chain) and the prediction
    service's fixed-point cache ([Serve.Server], whose candidates are
    every entry cached for the model family). *)

val nearest_start :
  candidates:(float * Numerics.Vec.t) list ->
  dim:int ->
  float ->
  [ `State of Numerics.Vec.t | `Warm ]
(** [nearest_start ~candidates ~dim lambda] picks, among the
    [(λᵢ, stateᵢ)] candidates whose state has dimension [dim], the one
    with the smallest [|λᵢ - lambda|] and returns it as a
    {!Drive.fixed_point} start; [`Warm] when no candidate has the right
    dimension. Ties keep the earliest candidate in list order. The
    chosen state is {e not} copied — {!Drive.fixed_point} copies its
    start state before integrating, so callers may pass cached vectors
    freely. *)

val along_lambda :
  build:(float -> Model.t) -> float list -> (float * Drive.fixed_point) list
(** [along_lambda ~build lambdas] solves [build λ] for each λ with
    {!Drive.fixed_point}'s defaults, in ascending-λ order with warm-start
    continuation (each solve starts from {!nearest_start} of the previous
    chain point), and returns [(λ, fixed point)] pairs in the {e input}
    order of [lambdas].

    The continuation is deliberately serial: solve-to-solve data
    dependence is the point. Experiments therefore run their sweeps
    once, up front, and only then fan simulations out in parallel;
    restoring the input order keeps that deterministic parallel mapping,
    and hence every printed table, independent of the visiting order.

    For the warm start to transfer, consecutive models must share a
    dimension: builders should pin their truncation depth (e.g. via
    {!pinned_dim}) rather than let it vary with λ. A dimension mismatch
    is not an error — that solve just falls back to [`Warm]. *)

val lookup : (float * Drive.fixed_point) list -> float -> Drive.fixed_point
(** Exact-λ lookup (by [Float.equal]) in a sweep's result — for use with
    the same float constants the sweep was built from.
    @raise Invalid_argument when λ was not in the sweep. *)

val total_evals : (float * Drive.fixed_point) list -> int
(** Total derivative evaluations across the sweep — the solver cost
    [bench meanfield] reports and CI's perf-smoke job floors. *)

val pinned_dim : float list -> int
(** Truncation dimension large enough for every λ in the list (the
    {!Tail.suggested_dim} of the largest), so a whole sweep can share
    one state dimension and warm starts always transfer. *)
