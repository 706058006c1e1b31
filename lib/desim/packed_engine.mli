(** Allocation-free discrete-event engine.

    Events are an immediate [int] payload plus one auxiliary [float]
    (see {!Packed_heap}), and the dispatch loop allocates nothing per
    event. Events fire in time order, FIFO among equal times.

    The handler is called as [handler payload] with the clock already
    advanced to the event's time; the event's time and aux float are
    read through {!now} and {!aux}. They are NOT passed as arguments
    because a float crossing a closure boundary is boxed, which would
    put an allocation back on every event. *)

type t

type scheduler = Heap | Calendar
(** The future-event set implementation. [Heap] is {!Packed_heap}:
    O(log m) per operation, the leanest constant factor for small
    pending sets. [Calendar] is {!Calendar_queue}: O(1) amortized,
    which wins once the pending set grows with the simulated system
    size. Both dispatch in the exact same (time, FIFO seq) order, so
    the selection can never change a simulation's trajectory — only
    its speed. *)

val create : ?capacity:int -> ?scheduler:scheduler -> unit -> t
(** Fresh engine with the clock at 0, using the given future-event set
    implementation (default [Heap]). *)

val scheduler : t -> scheduler
(** Which future-event set this engine was created with. *)

val now : t -> float
(** Current simulation time. During a handler call this is the
    dispatched event's timestamp. *)

val payload : t -> int
(** Payload of the most recently dispatched event. *)

val aux : t -> float
(** Auxiliary float of the most recently dispatched event; 0 before any
    dispatch. *)

val pending : t -> int
(** Number of scheduled events. *)

val dispatched : t -> int
(** Total events dispatched since creation — the denominator for
    events/sec and words/event metrics. *)

val schedule : t -> at:float -> payload:int -> aux:float -> unit
(** Schedule an event at absolute time [at].
    @raise Invalid_argument if [at] precedes the current clock. *)

val schedule_after : t -> delay:float -> payload:int -> aux:float -> unit
(** Schedule an event [delay] time units from now ([delay >= 0]). *)

val next : t -> bool
(** Dispatch the earliest event, if any, advancing the clock and the
    {!payload}/{!aux} registers; [false] when no events remain. *)

val run : until:float -> t -> handler:(int -> unit) -> unit
(** Dispatch events in time order while their time is at most [until]
    (handlers may schedule more). On return the clock is advanced to
    [until] in all cases — also when the queue drained before reaching
    it — so consecutive [run] calls tile the timeline without gaps. *)

val run_until_empty : t -> handler:(int -> unit) -> unit
(** Dispatch until no events remain (the caller must guarantee the
    event population dies out). *)

val advance_until : upto:float -> t -> handler:(int -> unit) -> unit
(** Like {!run} but with a {e strict} bound: dispatches events with time
    [< upto] only, then advances the clock to [upto]. Windowed
    (conservative PDES) drivers use this so that events at exactly the
    window edge stay pending until messages stamped at that edge have
    been scheduled. *)

val next_time : t -> float
(** Timestamp of the earliest pending event, or [infinity] when none
    remain — the local component of a conservative lookahead bound. *)

val clear : t -> unit
(** Reset the engine to its freshly created state — clock at 0, no
    pending events, dispatch counter and FIFO sequence numbering back
    to 0 — without freeing the underlying event lanes. Replication
    sweeps use this to reuse one engine's buffers across replicas
    while keeping every replica bit-identical to a fresh-engine run. *)
