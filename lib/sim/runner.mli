(** Replicated simulation runs.

    The paper averages 10 independent simulations of 100,000 seconds with
    the first 10,000 discarded; this module reproduces that protocol with
    configurable fidelity. Each replication draws its stream from the root
    seed by splitting, so a summary is reproducible from
    [(seed, config, fidelity)] alone.

    Replications are independent, so they run in parallel on a
    {!Parallel.Pool}. The root generator is split into [runs] streams in
    replica order {e before} anything is dispatched, each replica owns
    all of its mutable state ({!Cluster.t}, statistics, histograms), and
    {!summarize} merges the per-run results in index order after the
    batch completes — so summaries are bit-for-bit identical at every
    domain count, including the serial [domains = 1] pool. *)

type fidelity = {
  runs : int;  (** Independent replications. *)
  horizon : float;  (** Simulated seconds per replication. *)
  warmup : float;  (** Discarded prefix. *)
}

val paper_fidelity : fidelity
(** The paper's protocol: 10 runs × 100,000 s, 10,000 s warm-up. *)

val default_fidelity : fidelity
(** 3 runs × 20,000 s, 2,000 s warm-up — minutes-scale for the full bench
    suite while staying well within the tables' simulation noise. *)

val quick_fidelity : fidelity
(** 2 runs × 4,000 s, 500 s warm-up — smoke-test scale. *)

type summary = {
  runs : int;
  mean_sojourn : float;  (** Mean over replications of per-run means. *)
  sojourn_ci95 : float;
      (** 95% half-width over replications (normal approximation); [nan]
          for a single run. *)
  mean_load : float;  (** Mean over replications of time-average load. *)
  steal_success_rate : float;
      (** Successful steals / attempts, pooled; [nan] if no attempts. *)
  per_run : Cluster.result array;
}

val summarize : Cluster.result array -> summary
(** Merge per-replication results (in array order). Runs whose
    [mean_sojourn] (resp. [mean_load]) is [nan] — e.g. a window in which
    nothing completed — are excluded from that statistic; if every run
    is excluded the statistic is [nan]. [sojourn_ci95] is [nan] below
    two contributing runs, and [steal_success_rate] is [nan] when no
    steal was ever attempted. *)

val replicate_with :
  ?pool:Parallel.Pool.t ->
  seed:int ->
  runs:int ->
  (Prob.Rng.t -> Cluster.result) ->
  summary
(** The replication protocol over any single-run function: [runs]
    streams are split from [seed] in replica order before anything is
    dispatched, replica [i] calls the function on stream [i] across
    [pool], and {!summarize} merges the results in index order. The
    entries below are instances of it; the CLI runs {!Shard} replicas
    through it.
    @raise Invalid_argument if [runs < 1]. *)

val replicate :
  ?pool:Parallel.Pool.t ->
  seed:int ->
  fidelity:fidelity ->
  Cluster.config ->
  summary
(** Run [fidelity.runs] independent simulations of [config] across
    [pool] (default: {!Parallel.Pool.default}). The result does not
    depend on the pool size; see the module comment. *)

val replicate_static :
  ?pool:Parallel.Pool.t -> seed:int -> runs:int -> Cluster.config -> summary
(** Static variant: each run drains the seeded load to empty;
    [mean_sojourn] aggregates sojourns, and the per-run [makespan]s carry
    the drain times. *)
