(** Binary min-heap of packed events.

    Each event is an immediate [int] payload plus one auxiliary
    [float], stored in parallel lanes, so the heap allocates nothing per
    event. Ordering is float time, ties broken FIFO by insertion order —
    the order of a textbook binary heap over boxed events, which the
    test suite keeps as this heap's QCheck oracle ([test/event_heap.ml]).

    The non-allocating access protocol is: check {!is_empty} (or
    {!length}), read the root with {!root_time}, {!root_payload} and
    {!root_aux}, then remove it with {!drop_root}. {!pop} bundles those
    into an option for tests and non-critical callers. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> time:float -> payload:int -> aux:float -> unit
(** Insert an event. @raise Invalid_argument on NaN time. *)

val root_time : t -> float
(** Earliest event time. Unspecified (but safe) on an empty heap: it
    reads slot 0 of the backing lane, whatever it last held. Guard with
    {!is_empty}. *)

val root_payload : t -> int
(** Payload of the earliest event; same empty-heap caveat as
    {!root_time}. *)

val root_aux : t -> float
(** Auxiliary float of the earliest event; same empty-heap caveat as
    {!root_time}. *)

val drop_root : t -> unit
(** Remove the earliest event.
    @raise Invalid_argument on an empty heap. *)

val pop : t -> (float * int * float) option
(** [root_time], [root_payload], [root_aux] and [drop_root] in one call.
    Allocates the tuple — use the accessors on hot paths. *)

val clear : t -> unit
(** Reset to empty — both the length and the FIFO sequence counter —
    without freeing the lanes, so an engine reused across replicas
    keeps its warmed buffers and still dispatches identically to a
    freshly created one. *)
