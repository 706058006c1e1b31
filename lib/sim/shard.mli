(** Sharded entry into the {!Cluster} simulator: the same core scaled to
    n ≥ 10⁷ by conservative parallel discrete-event simulation.

    {!Cluster}'s core partitions the processor set into contiguous
    shards; {!Cluster.create} builds one, this module builds any number.
    Each shard owns a {!Desim.Packed_engine}, an RNG stream pre-split
    from the caller's root generator, and its slice of the flat Bigarray
    state lanes — shards share nothing on the hot path. Cross-shard
    steals travel as timestamped messages through per-pair {!Mailbox}es
    and are drained under a conservative lookahead window: with transfer
    latency [L] (the §3.2 steal cost), every message is stamped at
    least [L] after its generating event, so all shards may safely
    advance to [T + L] where [T] is the global minimum next-event time.
    This is conservative PDES — the windowing never changes the
    trajectory, it only bounds how far shards run between barriers.

    {b Determinism contract.} At a fixed shard count the run is
    bit-identical across repeats and across any {!Parallel.Pool} size
    (including 1): all orders that matter — drain order, window
    boundaries, FIFO tie-breaks — derive from shard indices and message
    push order, never from scheduling. At [shards = 1] the single shard
    uses the caller's generator directly, so the run is {!Cluster}'s,
    draw for draw. Different shard counts are different (equally valid)
    samples of the same model: RNG streams and cross-shard steal timing
    differ.

    {b Model restrictions.} At [shards = 1] every {!Cluster}
    configuration runs. With several shards a shard can read remote
    state only through messages, so only single-probe tail-steal
    policies are supported ([No_stealing], [On_empty] and [Steal_half]
    with [choices = 1]), with [spawn_rate = 0], [placement = 1] and
    [batch_mean = 1]. A cross-shard steal takes effect one latency [L]
    after the attempt (the victim grants against its load at that time)
    and the stolen tasks arrive another [L] later; a steal within a
    shard is local and instantaneous, as in {!Cluster}. *)

type config = {
  cluster : Cluster.config;
      (** Base model; see the restrictions above for which
          configurations several shards take. *)
  shards : int;  (** Number of shards, in [1 .. n]. *)
  latency : float;
      (** Cross-shard transfer latency [L]; must be positive when
          [shards > 1] (it is the lookahead). Unused at [shards = 1]. *)
}

type t

val create : rng:Prob.Rng.t -> config -> t
(** Build a sharded simulation instance ({!Cluster.create_sharded}).
    With [shards = 1] the caller's [rng] is used directly; otherwise one
    stream per shard is split from it in shard order.
    @raise Invalid_argument on malformed or unsupported configuration. *)

val run :
  ?pool:Parallel.Pool.t -> t -> horizon:float -> warmup:float -> Cluster.result
(** Drive the system to [horizon], discarding everything before
    [warmup], and merge per-shard statistics (shard-order folds;
    quantiles are count-weighted P² combinations). Rounds execute on
    [pool] (default {!Parallel.Pool.default}); the pool size affects
    only wall-clock speed, never the result. A [t] is single-use:
    create a fresh one per run. *)

val events_dispatched : t -> int
(** Total events dispatched across all shard engines. *)
