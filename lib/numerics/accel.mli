(** Convergence acceleration for linearly converging sequences.

    ODE relaxation toward a mean-field fixed point approaches it like
    [x(t) = x* + C·e^(-t/τ)]; three equally spaced samples determine [x*]
    by Aitken's Δ² formula. This shortens the long relaxation horizons
    needed at high arrival rates (λ close to 1). *)

val aitken : float -> float -> float -> float
(** [aitken x0 x1 x2] is the Aitken Δ² extrapolation of three successive
    terms of a linearly converging sequence. Falls back to [x2] when the
    second difference is too small for a stable update. *)

val aitken_vec : Vec.t -> Vec.t -> Vec.t -> Vec.t
(** Component-wise {!aitken} over three equally spaced state snapshots. *)

val dominant_ratio : Vec.t -> Vec.t -> Vec.t -> float
(** Power-method estimate of the dominant contraction ratio from three
    equally spaced snapshots: [⟨x₂-x₁, x₁-x₀⟩ / ⟨x₁-x₀, x₁-x₀⟩]. [nan]
    when the first difference vanishes — callers must screen the result
    with {!ratio_usable} before extrapolating with it. *)

val ratio_usable : float -> bool
(** Whether a contraction-ratio estimate can back an extrapolation: finite
    and strictly inside [(-1, 1)]. [nan], infinities and ratios of
    non-contracting modes are all rejected by the same predicate so every
    caller treats the degenerate cases identically. *)

val extrapolate_dominant : Vec.t -> Vec.t -> Vec.t -> Vec.t
(** Vector Shanks-type extrapolation assuming a single dominant mode with
    the {!dominant_ratio}: [x₂ + (x₂-x₁)·ρ/(1-ρ)]. More robust than
    per-component Aitken when component second differences are tiny.
    Falls back to [x₂] when the ratio is not in [(−1, 1)]. *)

(** {1 Column-wise Anderson mixing}

    Accelerates fixed-point iterations [x ← g(x)] by combining the last
    [depth] residuals [f_k = g(x_k) − x_k] through a regularised least
    squares over their differences (type-II Anderson acceleration), one
    independent iteration per column of a SoA state matrix: the lockstep
    batch solver's finish. *)

type anderson_cols
(** Per-column Anderson state over a SoA state matrix: the ring-buffer
    histories are depth-many [dim×cols] slabs, so column [k]'s history
    is column [k] of every slab and columns never exchange information.
    Not shareable between concurrent iterations. *)

val anderson_cols :
  ?depth:int ->
  ?beta:float ->
  ?reg:float ->
  dim:int ->
  cols:int ->
  unit ->
  anderson_cols
(** [depth] (default [5]) is the history length [m]; [beta] (default
    [1.0]) the mixing/damping factor applied to residuals; [reg] (default
    [1e-10]) the relative Tikhonov ridge added to the normal-equation
    diagonal. They apply uniformly to every column. *)

val anderson_cols_step :
  anderson_cols ->
  xs:Mat.t ->
  gxs:Mat.t ->
  dst:Mat.t ->
  cols:Active.t ->
  unit
(** One mixing step for every column listed in [cols]: writes the next
    iterates into the corresponding columns of [dst] (other columns are
    untouched). Each column updates its history, solves its type-II
    least squares, and falls back to plain damped mixing
    [x + β·(g(x) − x)] whenever that solve is degenerate or produces
    non-finite values; the batching only shares scratch buffers.
    [xs]/[gxs] are not modified; [dst] must not alias them. *)

val anderson_cols_reset : anderson_cols -> int -> unit
(** Drop the history of one column only (after its iterate was rejected
    and restarted); the other columns' histories are preserved. *)
