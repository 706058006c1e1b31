(** Discrete-event simulator of a finite work-stealing cluster.

    This is the paper's experimental apparatus rebuilt: [n] processors,
    Poisson external arrivals of rate [λ] at each, FIFO service, steals
    from the tail of the victim's queue, and one {!Policy.t} in force. The
    mean-field models of {!Meanfield} are the [n → ∞] limits of exactly
    these dynamics; the tables compare the two at [n = 16 … 128].

    Sojourn time is measured per task from arrival (at its original
    processor) to completion (wherever it ends up), with a warm-up prefix
    discarded as in the paper's protocol. Queue-length occupancy is
    tallied time-weighted per processor, yielding the empirical tail
    fractions [s_i] for comparison with fixed points.

    {b One core, two entries.} Per-processor state lives in flat
    Bigarray lanes indexed by processor id, partitioned into contiguous
    shards that each own an engine, an RNG stream, their processors'
    {!Task_queues} and their statistics. {!create} builds one shard:
    the caller's generator drives every draw, every policy and option
    is available, and every steal is local and instantaneous. {!Shard}
    builds several, for n ≥ 10⁷, through {!create_sharded} and
    {!run_sharded}, and then runs only the single-probe tail-steal
    policies (see {!Shard}). At [shards = 1] both entries run the same
    code on the same draws. *)

type scheduler = Desim.Packed_engine.scheduler = Heap | Calendar
(** Future-event set used by the engine, re-exported from
    {!Desim.Packed_engine} so callers need no direct [Desim]
    dependency. [Heap] (binary heap, O(log m)) has the leanest
    constants for small [n]; [Calendar] (calendar queue, O(1)
    amortized) wins once the pending set grows with [n]. Both dispatch
    in the exact same (time, FIFO) order, so the choice never changes
    any simulated trajectory — only wall-clock speed. *)

type config = {
  n : int;  (** Number of processors (≥ 2 for any stealing policy). *)
  arrival_rate : float;  (** External Poisson rate per processor. *)
  spawn_rate : float;
      (** Internal arrival rate while a processor is busy (the
          [λ_int] of §3.5); 0 for the standard model. *)
  service : Prob.Dist.service;  (** Mean-1 service-time family. *)
  speeds : float array option;
      (** Per-processor service speeds (length [n]); [None] = all 1.
          A speed-[μ] processor serves a mean-1 sample in mean [1/μ]. *)
  policy : Policy.t;
  initial_load : int;  (** Tasks seeded at every processor at time 0. *)
  placement : int;
      (** Arrival placement choices: 1 routes every task to the processor
          whose stream generated it (the paper's base model); [d ≥ 2]
          sends it to the shortest of [d] uniformly chosen queues — the
          supermarket discipline that motivates §3.3, enabling
          work-sharing vs. work-stealing comparisons. *)
  batch_mean : float;
      (** Mean size of the geometric task batch delivered by each arrival
          event (1 = the paper's base model of single arrivals). The
          per-processor {e task} rate is [arrival_rate · batch_mean]. *)
  scheduler : scheduler;
      (** Future-event set implementation; {!Heap} by default. Use
          {!Calendar} for large [n] (≳ 10⁴). *)
}

val default : config
(** [n = 128], [λ = 0.9], exponential service, simple stealing, no spawn,
    empty start, dedicated placement, heap scheduler. *)

type result = {
  duration : float;  (** Width of the measurement window. *)
  completed : int;  (** Tasks completed inside the window. *)
  mean_sojourn : float;  (** Average time in system — the tables' metric. *)
  sojourn_ci95 : float;  (** Normal-approximation 95% half-width. *)
  sojourn_p50 : float;  (** Median sojourn (P² estimate). *)
  sojourn_p95 : float;  (** 95th-percentile sojourn (P² estimate). *)
  sojourn_p99 : float;  (** 99th-percentile sojourn (P² estimate). *)
  mean_load : float;
      (** Time-average tasks per processor, including in-transit tasks
          under the Transfer policy. *)
  tail : int -> float;
      (** Empirical time-weighted [s_i]: fraction of (processor, time)
          with at least [i] tasks in queue (in-transit tasks excluded). *)
  steal_attempts : int;
  steal_successes : int;
  tasks_stolen : int;
  rebalances : int;
  makespan : float;  (** Static runs: drain time; [nan] for dynamic. *)
}

type t
(** A simulation instance (engine + processors + statistics). *)

val create : ?engine:Desim.Packed_engine.t -> rng:Prob.Rng.t -> config -> t
(** [create ?engine ~rng cfg] builds a single-shard simulation instance
    (any [n] up to 2{^24}). When
    [engine] is provided and was created with the same scheduler as
    [cfg.scheduler], it is {!Desim.Packed_engine.clear}ed and reused —
    replication sweeps use this to keep one warm engine per domain
    instead of re-allocating lanes per replica; a cleared engine
    dispatches bit-identically to a fresh one. A mismatched engine is
    ignored and a fresh one is built.
    @raise Invalid_argument on malformed configuration. *)

val events_dispatched : t -> int
(** Events the underlying engine has dispatched so far — the denominator
    of the events/sec and minor-words/event benchmark metrics. *)

val advance : t -> until:float -> unit
(** Dispatch events up to absolute time [until] without collecting a
    result; consecutive calls tile the timeline. This is the raw window
    primitive underneath {!run} — the benchmark kernels and the
    allocation-budget test use it to measure steady-state windows in
    isolation. Statistics accumulate exactly as during {!run} (with the
    warm-up boundary at 0 unless {!run} set one). *)

val run : t -> horizon:float -> warmup:float -> result
(** Drive the dynamic system to time [horizon], discarding everything
    before [warmup]. A [t] is single-use: create a fresh one per run. *)

val run_observed :
  t ->
  horizon:float ->
  warmup:float ->
  sample_every:float ->
  observe:(float -> (int -> float) -> unit) ->
  result
(** Like {!run}, but additionally calls [observe time tail] at [t = 0]
    and every [sample_every] time units, where [tail i] is the
    {e instantaneous} fraction of processors with at least [i] tasks —
    the finite-system realisation of the paper's [s_i(t)], for transient
    (trajectory-level) comparisons against the ODE solutions. The [tail]
    closure is only valid during the callback; it reads an incrementally
    maintained occupancy count, so each call is O(1) regardless of [n].
    Sample times are computed as [k *. sample_every] from an integer
    tick counter, so they carry no accumulated rounding error even over
    very long horizons. *)

val run_static :
  ?max_events:int -> t -> result
(** Run until every queue is empty (requires [arrival_rate = 0] and a
    spawn rate that dies out); all completions are measured. [max_events]
    (default 200 million) guards against non-terminating configurations.
    @raise Failure if the guard trips. *)

(** {1 Sharded runs}

    The entry points behind {!Shard}, which documents the model
    restrictions and the determinism contract of several shards. *)

val create_sharded :
  rng:Prob.Rng.t -> shards:int -> latency:float -> config -> t
(** [create_sharded ~rng ~shards ~latency cfg] partitions the processors
    into [shards] contiguous shards; with [shards = 1] it is {!create}
    without an engine to reuse. Errors name [Shard.create]. {!advance},
    {!run_observed} and {!run_static} reject an instance with several
    shards.
    @raise Invalid_argument on malformed or unshardable configuration. *)

val run_sharded :
  ?pool:Parallel.Pool.t -> t -> horizon:float -> warmup:float -> result
(** {!run} for any shard count: several shards advance in conservative
    lookahead rounds on [pool] (default {!Parallel.Pool.default}), whose
    size never changes the result. *)
