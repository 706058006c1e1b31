(** The prediction service's perf core.

    Answers "fixed point of family F at arrival rate λ" queries through
    a three-tier path, cheapest first:

    + {b Hit} — the canonical (family, λ) key is cached: zero solver
      work, the answer (state and precomputed metrics) comes straight
      from the entry.
    + {b Interpolated} — λ falls inside a narrow, well-populated gap of
      the family's cached λ-chain: the monotone Fritsch–Carlson
      interpolant of the cached states ({!Numerics.Interp.pchip_cols})
      is evaluated at λ and {e certified} by one real derivative
      evaluation — accepted only when the residual [‖ds/dt‖∞] is within
      [tol · guard_factor] and the model's domain check passes; a
      failed guard falls through to the next tier.
    + {b Warm} — a solve started from the nearest cached λ-neighbour
      ({!Meanfield.Continuation.nearest_start}), which skips the
      relaxation transport phase and typically converges in a small
      fraction of a cold solve's derivative evaluations. The neighbour
      start is kept only when a residual check shows it beats the
      model's own default start — for a model whose [initial_warm] is
      already its closed-form fixed point (mm1), relaxing away from a
      neighbour would be a large pessimisation.
    + {b Cold} — the family has nothing usable cached (or nothing that
      beats the default start); a full [`Warm]-start
      {!Meanfield.Drive.fixed_point} solve.

    Every non-hit answer is inserted into the cache, so the service
    gets faster as the λ-curve of each family fills in.

    Thread-safety: all server state is either immutable or touched only
    under a mutex (the cache's shard stripes, the served-query
    counters), so [answer] may be called concurrently from any number
    of threads and domains — the daemon does exactly that, answering
    each connection on the pool domain that hosts it. *)

type source = Hit | Interpolated | Warm | Cold

val source_name : source -> string
(** ["hit"], ["interpolated"], ["warm"], ["cold"] — stable JSON
    spelling. *)

type config = private {
  shards : int;  (** Cache stripes (16). *)
  depth : int;
      (** Pinned truncation depth handed to {!Families.resolve}
          ({!Families.default_depth}); part of the cache key. *)
  tol : float;  (** Solver tolerance for misses (1e-11). *)
  interp_gap : float;
      (** Maximum λ-width of a cached bracket eligible for
          interpolation (0.03). *)
  interp_min_points : int;
      (** Minimum cached points of matching dimension in the family
          before interpolation is attempted (4). *)
  guard_factor : float;
      (** Interpolated states are accepted iff their true residual is
          ≤ [tol · guard_factor] (1e4, i.e. 1e-7 at [tol]). *)
  warm_basin : float;
      (** Hand-over residual of a warm-started solve: below it the
          solve starts the Newton corrector directly (1e-2 — loose
          enough that a nearest-neighbour start skips the relaxation
          transport phase; see {!Meanfield.Drive.fixed_point}'s
          [basin]). Cold solves keep the solver's conservative
          default. *)
}
(** The server's constants. Read-only: every server runs on
    {!default_config}. *)

val default_config : config

type answer = {
  family : Families.t;
  lambda : float;  (** Canonical λ actually answered. *)
  state : Numerics.Vec.t;
      (** Fixed-point state — shared with the cache, read-only by
          contract. *)
  residual : float;  (** Certified [‖ds/dt‖∞] at [state]. *)
  evals : int;
      (** Derivative evaluations this answer cost (0 for a hit, 1 for
          an interpolation, the solve cost otherwise). *)
  source : source;
  mean_tasks : float;  (** {!Meanfield.Metrics.mean_tasks}. *)
  mean_time : float;
      (** {!Meanfield.Metrics.mean_time} — expected sojourn time, the
          paper's headline quantity. *)
}

type t

type stats = {
  cache : Cache.stats;
  hit : int;
  interpolated : int;
  warm : int;
  cold : int;
  miss_evals : int;
      (** Total derivative evaluations across warm and cold solves. *)
  batched_solves : int;
      (** Lockstep {!Meanfield.Drive.fixed_point_batch} calls the miss
          path ran (each covering ≥ 2 columns). *)
  batched_columns : int;
      (** Total columns across those batched solves. *)
  probe_evals : int;
      (** Derivative evaluations this process has spent probing
          sparsity patterns ({!Meanfield.Drive.probe_evals}): once per
          model structure, shared by every server, and charged to no
          answer's [evals] — so an answer's cost does not depend on
          which query happened to meet its structure first. *)
}

val create : unit -> t

val config : t -> config
(** Always {!default_config}. *)

val answer : t -> Families.t -> float -> answer
(** [answer t fam λ] serves one query. λ is canonicalised first
    ({!Key.canon_float}). Raises whatever the family's model builder
    raises on out-of-domain parameters ([Invalid_argument]); the
    protocol layer turns that into an error response. *)

val try_fast : t -> Families.t -> float -> answer option
(** The two solver-free tiers only: a cache hit or a certified
    interpolation, counted and (for an interpolation) inserted exactly
    as {!answer} would; [None] means the query needs a real solve.
    {!answer_batch} uses this to find a family's true misses before
    it hands them to {!solve_group}. *)

val solve_group : t -> Families.t -> float list -> answer list
(** Solve a group of true misses of one family — distinct canonical λs,
    each already accounted by the {!try_fast} that missed. Two or more
    λs become a single lockstep {!Meanfield.Drive.fixed_point_batch}
    solve over the family's [build_batch] (per-column warm/cold start
    decisions against one cache-chain snapshot, every derivative sweep
    shared across the group); a singleton keeps the scalar solver.
    A group whose every column would start cold first scalar-solves one
    anchor (the median λ) and re-groups the rest against the refreshed
    chain, recovering the warm-start chaining a sequential replay of
    the same misses would enjoy. Results are inserted, counted and
    returned in input order. *)

val answer_batch :
  ?pool:Parallel.Pool.t -> t -> (Families.t * float) list -> answer list
(** Serve a batch: queries are grouped by family and the groups fan out
    over the pool (default {!Parallel.Pool.default}). Within a family
    each distinct λ is served once ({!try_fast}, then one
    {!solve_group} over the misses in ascending λ) and within-request
    duplicates share that answer single-flight, counted as hits.
    Results are in input order and bit-identical at any pool size:
    family groups are pairwise independent. *)

val stats : t -> stats
