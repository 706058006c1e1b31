(** Fixed-size domain pool for embarrassingly parallel maps.

    The replication protocol of {!Wsim.Runner} and the experiment grids
    are independent simulations sharing no state; this pool spreads them
    over OCaml 5 domains. It is deliberately small: a shared FIFO of
    closures, [domains - 1] spawned worker domains, and a caller that
    helps drain the queue while it waits, so nested [map]s on the same
    pool cannot deadlock.

    {b Domain-locality invariant.} Tasks submitted through {!map} and
    {!map_array} must not share mutable state with each other: every
    simulation replica owns its {!Wsim.Cluster.t}, its statistics
    accumulators and its histograms, and merging (e.g.
    {!Wsim.Runner.summarize}) happens on the calling domain after the
    whole batch has completed. Immutable inputs (configs, policies,
    pre-split {!Prob.Rng.t} streams — each used by exactly one task) may
    be shared freely. Nothing in this module can enforce the invariant;
    every call site in this repository is written to respect it.

    {b Determinism.} [map] and [map_array] return results in input
    order, whatever order tasks actually ran in, so a fold over the
    result is bit-for-bit independent of the domain count. Callers that
    consume randomness must split their RNG streams {e before}
    submitting tasks (one independent stream per task); then the whole
    computation is reproducible at any pool size. *)

type t
(** A pool of worker domains. One global {!default} pool normally
    suffices; extra pools are mainly useful for tests and for forcing a
    serial run ([create ~domains:1]). *)

val create : domains:int -> t
(** [create ~domains] is a pool that executes maps on [domains] domains
    {e in total}: the calling domain plus [domains - 1] spawned workers.
    [create ~domains:1] spawns nothing and runs every map serially in
    the caller — the reference behaviour for determinism checks.
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int
(** Total domains (including the caller) used by maps on this pool. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] computes [List.map f xs] with the elements spread
    over the pool. Results are in input order. If any [f x] raises, the
    first exception observed is re-raised after the batch drains. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}; the result at index [i] is [f xs.(i)]. *)

val map_int : t -> (int -> 'a) -> int -> 'a array
(** [map_int pool f n] is [[| f 0; ...; f (n-1) |]] with the calls
    spread over the pool — the round primitive of the sharded
    simulator, which re-submits the same [n] shard tasks every
    lookahead window. The barrier on return is also the happens-before
    edge that hands each shard's outbound mailboxes to their consumers
    for the next round. Results are in index order; the first exception
    observed is re-raised after the batch drains.
    @raise Invalid_argument if [n < 0]. *)

(** {1 Hosting threads}

    A long-lived, mostly blocked job — a daemon's client connection —
    must not run as a map task: a [map]'s help loop pops any queued
    task, so it could end up blocked inside one. Instead the pool
    {e hosts} it: a systhread created inside a chosen pool domain,
    sharing that domain's runtime with its worker loop. Concurrent
    hosted threads on different domains run in parallel, and each can
    call [map] on the same pool. *)

val host : t -> (int -> unit) -> int
(** [host pool f] starts a thread that runs [f i] on pool domain [i],
    and returns [i]: the domain with the fewest live hosted threads,
    ties going to the lowest index. Index 0 is the domain that created
    the pool, and [host] must be called from it; there [f] runs on a
    thread created by the caller. Index [i > 0] is a worker: the
    request waits in that worker's own inbox, which the worker drains
    before the shared task queue, so the thread is always created on
    that worker's domain and never by a help loop elsewhere. A size-1
    pool hosts everything on the caller's domain. Returns without
    waiting for [f].
    @raise Invalid_argument if the pool is shut down. *)

val hosted : t -> int array
(** Live hosted threads per domain index, as a snapshot. *)

val shutdown : t -> unit
(** Wait until every hosted thread has ended, then terminate the
    workers (after any queued tasks finish) and join them. Only call
    when no map is in flight, and not from a hosted thread; further
    maps and hosts on the pool raise [Invalid_argument]. Idempotent. *)

(** {1 Default pool}

    A process-wide pool in the style of a [Parallel.Scope]: created on
    first use, sized from [Domain.recommended_domain_count ()] unless
    overridden, shared by every caller that does not pass an explicit
    pool, and torn down at exit. *)

val default : unit -> t
(** The shared pool, creating it on first call. Safe to call from any
    domain (including pool workers, which is what a nested
    [Runner.replicate] inside a parallel experiment row does). *)

val set_default_domains : int -> unit
(** Fix the size of the default pool — the bench harness's [--domains].
    Call before parallel work starts: if the default pool already
    exists at a different size it is shut down and recreated on next
    use, which is only safe while it is idle.
    @raise Invalid_argument if the argument is [< 1]. *)
