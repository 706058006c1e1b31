(** Binary min-heap of timestamped events: the order oracle of the
    desim tests.

    Keys are float times; ties are broken by insertion order (FIFO). The
    payload is an ordinary ['a option] slot, so the code is the plain
    textbook heap with none of {!Desim.Packed_heap}'s lane packing: the
    QCheck suite holds the packed heap to this heap's pop order, and the
    calendar-queue suite holds the calendar queue to the packed heap's. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event. @raise Invalid_argument on NaN time. *)

val peek_time : 'a t -> float option
(** Earliest event time, if any. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event (FIFO among equal times). *)

val clear : 'a t -> unit
