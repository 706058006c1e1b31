(** Per-processor task queues in flat Bigarray lanes.

    Queue [i] holds the arrival stamps of processor [i]'s tasks that
    wait for service: tasks are served FIFO from the front while
    thieves steal from the back, the discipline of Section 2.1. Every
    queue is a power-of-two ring segment of one shared float arena, so
    both ends are O(1), the wrap is a mask and nothing lives on the
    OCaml heap. A full ring moves to a segment of twice its size bumped
    off the arena's end; the old segment is abandoned, which the
    geometric series over a queue's growth history bounds.

    The simulator keeps one instance per shard, covering the shard's
    processors by local index, so shards mutating their queues share
    no memory. *)

type t

val create : procs:int -> capacity:int -> t
(** [procs] empty queues, each with room for [capacity] stamps
    (rounded up to a power of two) before its first growth. *)

val length : t -> int -> int
(** Stamps queued at [i]. *)

val push_back : t -> int -> float -> unit
(** Enqueue a task at [i]'s back. *)

val pop_front : t -> int -> float
(** Dequeue [i]'s oldest task (the next to serve). Unchecked: [i]'s
    queue must be non-empty. *)

val pop_back : t -> int -> float
(** Remove [i]'s newest task (the one a thief steals). Unchecked: [i]'s
    queue must be non-empty. *)
