(** Tail-density state vectors.

    The paper represents the limiting system by the infinite-dimensional
    vector [s = (s₀, s₁, s₂, …)] where [sᵢ] is the fraction of processors
    with at least [i] tasks ([s₀ = 1], non-increasing, [sᵢ → 0]); see
    Section 2.1. We truncate to a finite prefix [s₀ … s_{K}] and close the
    boundary with a geometric extension — justified by the paper's central
    structural result that fixed-point tails decrease geometrically for
    large [i]. *)

val empty : dim:int -> mass:float -> Numerics.Vec.t
(** All processors idle: [s₀ = mass], the rest 0. [mass] is 1 for a
    homogeneous population, or the class fraction in stratified models. *)

val geometric : dim:int -> ratio:float -> mass:float -> Numerics.Vec.t
(** [sᵢ = mass·ratioⁱ] — a valid tail vector for any [ratio ∈ [0,1)];
    the M/M/1 fixed point when [ratio = λ], used as a warm start. *)

val is_valid : ?eps:float -> ?mass:float -> Numerics.Vec.t -> bool
(** Checks [s₀ = mass], monotone non-increase and range [\[0, mass\]], all
    up to [eps] (default [1e-7]). *)

val boundary_ratio : Numerics.Vec.t -> float
(** Estimated geometric decay ratio at the truncation boundary,
    [s_K / s_{K-1}], clamped into [\[0, 0.999999\]]; 0 when the boundary
    densities are too small to estimate reliably. *)

val ext : Numerics.Vec.t -> ratio:float -> int -> float
(** [ext s ~ratio i] reads [sᵢ], geometrically extending past the
    truncation with the given ratio: for [i ≥ dim],
    [s_{dim-1}·ratio^(i-dim+1)]. *)

val get : Numerics.Vec.t -> ratio:float -> int -> float
(** [get s ~ratio i] is [s.(i)] inside the truncation and {!ext} beyond
    it: the one tail reader of the scalar derivatives. Inlined, so the
    read allocates nothing in a release build. *)

val ipow : float -> int -> float
(** [ipow x d] is [xᵈ] for [d ≥ 0] by square-and-multiply: the
    probability that all of [d] sampled queues miss a level in the
    d-choice families. Inlined and allocation-free. *)

val pow_diff : float -> float -> int -> float
(** [pow_diff a b d] is [(1 − a)ᵈ − (1 − b)ᵈ], computed as
    [(b − a)·Σ_{k<d} (1 − a)ᵏ(1 − b)^(d−1−k)] so that it keeps full
    relative precision when [a] and [b] are tiny, where the plain
    difference of powers cancels. Inlined and allocation-free. *)

val seg_ratio : Numerics.Vec.t -> off:int -> depth:int -> float
(** {!boundary_ratio} of the tail segment packed at
    [y.(off) .. y.(off + depth)], as multi-segment models (phases,
    server classes, transfer stages) store their populations. *)

val seg_get : Numerics.Vec.t -> off:int -> depth:int -> int -> float
(** Level [i] of that segment: [y.(off + i)] for [i ≤ depth], else
    [y.(off + depth)·]{!seg_ratio} — these models read at most one level
    past the truncation. Inlined and allocation-free, like {!get}. *)

val seg_mean_tasks : Numerics.Vec.t -> off:int -> depth:int -> float
(** The segment's [Σ_{1≤i≤depth} y.(off + i)] plus its geometric
    closure past [depth] at {!seg_ratio} — the segment's share of the
    mean task count. *)

val boundary_ratio_col : Numerics.Mat.t -> int -> float
(** {!boundary_ratio} of one column of a SoA state matrix — bit-identical
    to the scalar on the same values; allocation-free. *)

val ext_col : Numerics.Mat.t -> ratio:float -> int -> int -> float
(** [ext_col ys ~ratio k i] is {!ext} on column [k]: reads [ys.(i, k)]
    inside the truncation, extends geometrically past it. [i] must be
    non-negative; allocation-free. *)

val mean_tasks : ?from:int -> Numerics.Vec.t -> float
(** [Σ_{i≥from} sᵢ] (default [from = 1] — the expected number of tasks per
    processor, since [E[N] = Σ_{i≥1} P(N ≥ i)]) plus the geometric closure
    beyond the truncation. *)

val suggested_dim : lambda:float -> ?floor:int -> ?cap:int -> unit -> int
(** Truncation depth heuristic: deep enough that an un-stolen M/M/1 tail
    [λⁱ] falls below [1e-10], clamped into [\[floor, cap\]] (defaults 48
    and 512). Work stealing only thins tails further, and the geometric
    closure absorbs the remainder. *)
