(** Interpolation of sampled functions.

    Trajectories come out of the integrators as discrete samples; these
    helpers evaluate them in between — linear for robustness, monotone
    cubic (Fritsch–Carlson PCHIP) when smooth derivatives matter and
    overshoot must be avoided (tail densities must stay monotone). *)

type t
(** An interpolant over strictly increasing abscissae. *)

val linear : xs:Vec.t -> ys:Vec.t -> t
(** Piecewise-linear interpolant. @raise Invalid_argument unless [xs] is
    strictly increasing and lengths match (≥ 2 points). *)

val pchip : xs:Vec.t -> ys:Vec.t -> t
(** Monotone piecewise-cubic Hermite interpolant (Fritsch–Carlson slope
    limiting): preserves monotonicity of the data on every interval, never
    overshoots. Same preconditions as {!linear}. *)

val eval : t -> float -> float
(** Evaluate; clamps outside the data range to the boundary values. *)

val pchip_cols : xs:Vec.t -> cols:Vec.t array -> float -> Vec.t
(** [pchip_cols ~xs ~cols x] evaluates, componentwise, the monotone
    Fritsch–Carlson interpolant of the vector-valued samples
    [(xs.(i), cols.(i))] at [x] — a fresh vector whose component [k]
    equals [eval (pchip ~xs ~ys:[|cols.(0).(k); …|]) x], computed in one
    pass without building per-component interpolants (the slopes a
    Hermite segment needs are local to the bracketing interval). Clamps
    outside the data range to the boundary columns. The prediction
    service uses this to interpolate whole fixed-point tail vectors
    between cached λ grid points; monotone slope limiting guarantees the
    interpolated densities inherit the grid's monotonicity in λ and
    never overshoot. @raise Invalid_argument unless [xs] is strictly
    increasing, [Array.length cols = Vec.dim xs ≥ 2] and the columns
    share one dimension. *)
