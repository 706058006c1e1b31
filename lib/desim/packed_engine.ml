(* Engine over a packed future-event set. Three deliberate shapes serve
   a zero-allocation dispatch loop without flambda:

   - The clock and the current event's aux float live in single-field
     float records ([cell]): such records are flat, so advancing the
     clock is an unboxed store. A [mutable float] field in the engine
     record itself (which also holds pointers) would box on every
     event.

   - The handler receives only the immediate [int] payload. Passing the
     time or aux as float arguments would box them at the call boundary
     (the handler is a closure, never inlined); handlers read them
     through the inlined {!now} and {!aux} accessors instead.

   - The drain loop is a top-level tail recursion over pointer arguments
     only, with the [until] bound parked in a cell; a float parameter
     threaded through a recursive call would be boxed per iteration, and
     a [bool ref] loop flag would allocate per call.

   The future-event set itself is pluggable: {!Packed_heap} (O(log m)
   but constant-factor lean) or {!Calendar_queue} (O(1) amortized, the
   right choice once the pending set grows with n). Both expose the same
   non-allocating root protocol and the same exact (time, FIFO seq)
   order, so the choice is invisible to handlers — every queue operation
   below is a single [@inline] one-branch match. *)

type cell = { mutable v : float }
type scheduler = Heap | Calendar

type queue = Qheap of Packed_heap.t | Qcal of Calendar_queue.t

type t = {
  clock : cell;
  limit : cell;
  current_aux : cell;
  mutable current_payload : int;
  mutable dispatched : int;
  queue : queue;
}

let create ?capacity ?(scheduler = Heap) () =
  {
    clock = { v = 0.0 };
    limit = { v = 0.0 };
    current_aux = { v = 0.0 };
    current_payload = 0;
    dispatched = 0;
    queue =
      (match scheduler with
      | Heap -> Qheap (Packed_heap.create ?capacity ())
      | Calendar -> Qcal (Calendar_queue.create ?capacity ()));
  }

let scheduler t = match t.queue with Qheap _ -> Heap | Qcal _ -> Calendar

let[@inline] q_push q ~time ~payload ~aux =
  match q with
  | Qheap h -> Packed_heap.push h ~time ~payload ~aux
  | Qcal c -> Calendar_queue.push c ~time ~payload ~aux

let[@inline] q_length q =
  match q with
  | Qheap h -> Packed_heap.length h
  | Qcal c -> Calendar_queue.length c

let[@inline] q_is_empty q =
  match q with
  | Qheap h -> Packed_heap.is_empty h
  | Qcal c -> Calendar_queue.is_empty c

let[@inline] q_root_time q =
  match q with
  | Qheap h -> Packed_heap.root_time h
  | Qcal c -> Calendar_queue.root_time c

let[@inline] q_root_payload q =
  match q with
  | Qheap h -> Packed_heap.root_payload h
  | Qcal c -> Calendar_queue.root_payload c

let[@inline] q_root_aux q =
  match q with
  | Qheap h -> Packed_heap.root_aux h
  | Qcal c -> Calendar_queue.root_aux c

let[@inline] q_drop_root q =
  match q with
  | Qheap h -> Packed_heap.drop_root h
  | Qcal c -> Calendar_queue.drop_root c

let[@inline] now t = t.clock.v
let[@inline] payload t = t.current_payload
let[@inline] aux t = t.current_aux.v
let pending t = q_length t.queue
let dispatched t = t.dispatched

let[@inline] schedule t ~at ~payload ~aux =
  (* lint: allow zero-alloc: cold causality guard, raises before the hot path *)
  if at < t.clock.v then invalid_arg "Packed_engine.schedule: event in the past";
  q_push t.queue ~time:at ~payload ~aux

let[@inline] schedule_after t ~delay ~payload ~aux =
  if delay < 0.0 then
    (* lint: allow zero-alloc: cold negative-delay guard, raises before the hot path *)
    invalid_arg "Packed_engine.schedule_after: negative delay";
  q_push t.queue ~time:(t.clock.v +. delay) ~payload ~aux

let[@inline] take_root t =
  let queue = t.queue in
  t.clock.v <- q_root_time queue;
  t.current_aux.v <- q_root_aux queue;
  t.current_payload <- q_root_payload queue;
  t.dispatched <- t.dispatched + 1;
  q_drop_root queue

let next t =
  if q_is_empty t.queue then false
  else begin
    take_root t;
    true
  end

let rec drain t ~handler =
  if not (q_is_empty t.queue) then
    if q_root_time t.queue <= t.limit.v then begin
      take_root t;
      handler t.current_payload;
      drain t ~handler
    end

let run ~until t ~handler =
  t.limit.v <- until;
  drain t ~handler;
  t.clock.v <- until

(* Strict-bound variant for windowed (conservative PDES) advancement:
   a window [clock, upto) processes only events with time < upto, so
   that peer messages — whose stamps are bounded below by [upto] —
   can still be scheduled before anything at [upto] itself runs. *)
let rec drain_strict t ~handler =
  if not (q_is_empty t.queue) then
    if q_root_time t.queue < t.limit.v then begin
      take_root t;
      handler t.current_payload;
      drain_strict t ~handler
    end

let advance_until ~upto t ~handler =
  t.limit.v <- upto;
  drain_strict t ~handler;
  t.clock.v <- upto

let next_time t =
  if q_is_empty t.queue then infinity else q_root_time t.queue

let clear t =
  t.clock.v <- 0.0;
  t.limit.v <- 0.0;
  t.current_aux.v <- 0.0;
  t.current_payload <- 0;
  t.dispatched <- 0;
  match t.queue with
  | Qheap h -> Packed_heap.clear h
  | Qcal c -> Calendar_queue.clear c
