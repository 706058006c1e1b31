(* Tests for the discrete-event engine: heap ordering, FIFO tie-breaking,
   clock discipline. *)

let check_float = Alcotest.(check (float 1e-12))

(* ---------- Event_heap ---------- *)

let test_heap_ordering () =
  let h = Desim.Event_heap.create () in
  List.iter
    (fun t -> Desim.Event_heap.push h ~time:t (int_of_float (t *. 10.0)))
    [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  let order = ref [] in
  let rec drain () =
    match Desim.Event_heap.pop h with
    | Some (t, _) ->
        order := t :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-12)))
    "sorted" [ 0.5; 1.0; 2.0; 2.5; 3.0 ] (List.rev !order)

let test_heap_fifo_ties () =
  let h = Desim.Event_heap.create () in
  for i = 0 to 9 do
    Desim.Event_heap.push h ~time:1.0 i
  done;
  for expected = 0 to 9 do
    match Desim.Event_heap.pop h with
    | Some (_, got) -> Alcotest.(check int) "fifo" expected got
    | None -> Alcotest.fail "heap drained early"
  done

let test_heap_interleaved () =
  (* pops between pushes keep order *)
  let h = Desim.Event_heap.create ~capacity:1 () in
  Desim.Event_heap.push h ~time:5.0 'a';
  Desim.Event_heap.push h ~time:1.0 'b';
  (match Desim.Event_heap.pop h with
  | Some (t, c) ->
      check_float "t" 1.0 t;
      Alcotest.(check char) "c" 'b' c
  | None -> Alcotest.fail "empty");
  Desim.Event_heap.push h ~time:0.5 'c';
  Desim.Event_heap.push h ~time:9.0 'd';
  let seq = ref [] in
  let rec drain () =
    match Desim.Event_heap.pop h with
    | Some (_, c) ->
        seq := c :: !seq;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list char)) "rest" [ 'c'; 'a'; 'd' ] (List.rev !seq)

let test_heap_growth () =
  let h = Desim.Event_heap.create ~capacity:2 () in
  for i = 0 to 999 do
    Desim.Event_heap.push h ~time:(float_of_int (999 - i)) i
  done;
  Alcotest.(check int) "length" 1000 (Desim.Event_heap.length h);
  (match Desim.Event_heap.peek_time h with
  | Some t -> check_float "peek" 0.0 t
  | None -> Alcotest.fail "empty");
  let last = ref neg_infinity in
  let rec drain () =
    match Desim.Event_heap.pop h with
    | Some (t, _) ->
        Alcotest.(check bool) "monotone" true (t >= !last);
        last := t;
        drain ()
    | None -> ()
  in
  drain ()

let test_heap_nan () =
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: NaN time")
    (fun () -> Desim.Event_heap.push (Desim.Event_heap.create ()) ~time:nan 0)

let test_heap_clear () =
  let h = Desim.Event_heap.create () in
  Desim.Event_heap.push h ~time:1.0 0;
  Desim.Event_heap.clear h;
  Alcotest.(check bool) "empty" true (Desim.Event_heap.is_empty h)

let qcheck_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap pops in non-decreasing time order"
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let h = Desim.Event_heap.create () in
      List.iter (fun t -> Desim.Event_heap.push h ~time:t ()) times;
      let rec drain last =
        match Desim.Event_heap.pop h with
        | Some (t, ()) -> t >= last && drain t
        | None -> true
      in
      drain neg_infinity)

let qcheck_heap_preserves_multiset =
  QCheck.Test.make ~count:200 ~name:"heap returns exactly what was pushed"
    QCheck.(list (float_bound_inclusive 100.0))
    (fun times ->
      let h = Desim.Event_heap.create () in
      List.iter (fun t -> Desim.Event_heap.push h ~time:t ()) times;
      let rec drain acc =
        match Desim.Event_heap.pop h with
        | Some (t, ()) -> drain (t :: acc)
        | None -> acc
      in
      let popped = drain [] in
      List.equal Float.equal (List.sort Float.compare popped)
        (List.sort Float.compare times))

(* ---------- Packed_heap ---------- *)

let test_packed_ordering () =
  let h = Desim.Packed_heap.create () in
  List.iteri
    (fun i t -> Desim.Packed_heap.push h ~time:t ~payload:i ~aux:(t *. 2.0))
    [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  let rec drain acc =
    match Desim.Packed_heap.pop h with
    | Some (t, p, a) -> drain ((t, p, a) :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (triple (float 1e-12) int (float 1e-12))))
    "sorted with payload and aux"
    [ (0.5, 3, 1.0); (1.0, 1, 2.0); (2.0, 2, 4.0); (2.5, 4, 5.0); (3.0, 0, 6.0) ]
    (drain [])

let test_packed_fifo_bursts () =
  (* interleaved bursts of equal times: FIFO must hold within each time
     value even across bursts and intervening pops *)
  let h = Desim.Packed_heap.create ~capacity:1 () in
  for i = 0 to 4 do
    Desim.Packed_heap.push h ~time:1.0 ~payload:i ~aux:0.0;
    Desim.Packed_heap.push h ~time:2.0 ~payload:(100 + i) ~aux:0.0
  done;
  (match Desim.Packed_heap.pop h with
  | Some (_, p, _) -> Alcotest.(check int) "first of t=1" 0 p
  | None -> Alcotest.fail "empty");
  for i = 5 to 9 do
    Desim.Packed_heap.push h ~time:1.0 ~payload:i ~aux:0.0
  done;
  let rec drain acc =
    match Desim.Packed_heap.pop h with
    | Some (_, p, _) -> drain (p :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int))
    "fifo within equal times"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 100; 101; 102; 103; 104 ]
    (drain [])

let test_packed_accessor_protocol () =
  let h = Desim.Packed_heap.create () in
  Desim.Packed_heap.push h ~time:2.0 ~payload:7 ~aux:0.25;
  Desim.Packed_heap.push h ~time:1.0 ~payload:9 ~aux:0.75;
  check_float "root time" 1.0 (Desim.Packed_heap.root_time h);
  Alcotest.(check int) "root payload" 9 (Desim.Packed_heap.root_payload h);
  check_float "root aux" 0.75 (Desim.Packed_heap.root_aux h);
  Desim.Packed_heap.drop_root h;
  Alcotest.(check int) "next payload" 7 (Desim.Packed_heap.root_payload h);
  Desim.Packed_heap.drop_root h;
  Alcotest.(check bool) "drained" true (Desim.Packed_heap.is_empty h);
  Alcotest.check_raises "drop on empty"
    (Invalid_argument "Packed_heap.drop_root: empty heap") (fun () ->
      Desim.Packed_heap.drop_root h)

let test_packed_nan () =
  Alcotest.check_raises "nan" (Invalid_argument "Packed_heap.push: NaN time")
    (fun () ->
      Desim.Packed_heap.push
        (Desim.Packed_heap.create ())
        ~time:nan ~payload:0 ~aux:0.0)

(* Model check: the packed heap must pop exactly the sequence that the
   generic [Event_heap] pops for the same pushes — same times, same
   FIFO tie-breaks — since the simulator's bit-reproducibility rests on
   the two heaps being order-equivalent. *)
let qcheck_packed_matches_event_heap =
  QCheck.Test.make ~count:200 ~name:"packed heap order-equivalent to Event_heap"
    QCheck.(list (float_bound_inclusive 100.0))
    (fun times ->
      let ph = Desim.Packed_heap.create () in
      let eh = Desim.Event_heap.create () in
      List.iteri
        (fun i t ->
          Desim.Packed_heap.push ph ~time:t ~payload:i ~aux:(float_of_int i);
          Desim.Event_heap.push eh ~time:t i)
        times;
      let rec drain acc =
        match (Desim.Packed_heap.pop ph, Desim.Event_heap.pop eh) with
        | Some (pt, pp, pa), Some (et, ep) ->
            Float.equal pt et && pp = ep
            && Float.equal pa (float_of_int pp)
            && drain (acc + 1)
        | None, None -> acc = List.length times
        | _ -> false
      in
      drain 0)

let qcheck_packed_interleaved_pops =
  (* random push/pop interleaving: pops are globally non-decreasing in
     time provided pushes never go below the last popped time (mirrors
     how the engine uses the heap: never schedule in the past) *)
  QCheck.Test.make ~count:200 ~name:"packed heap monotone under interleaving"
    QCheck.(list (pair (float_bound_inclusive 10.0) bool))
    (fun ops ->
      let h = Desim.Packed_heap.create ~capacity:1 () in
      let last = ref 0.0 in
      let ok = ref true in
      List.iteri
        (fun i (dt, do_pop) ->
          Desim.Packed_heap.push h ~time:(!last +. dt) ~payload:i ~aux:0.0;
          if do_pop then begin
            let t = Desim.Packed_heap.root_time h in
            if t < !last then ok := false;
            last := t;
            Desim.Packed_heap.drop_root h
          end)
        ops;
      let rec drain () =
        if Desim.Packed_heap.is_empty h then true
        else begin
          let t = Desim.Packed_heap.root_time h in
          if t < !last then false
          else begin
            last := t;
            Desim.Packed_heap.drop_root h;
            drain ()
          end
        end
      in
      !ok && drain ())

(* ---------- Calendar_queue ---------- *)

let test_calendar_ordering () =
  let q = Desim.Calendar_queue.create () in
  List.iteri
    (fun i t -> Desim.Calendar_queue.push q ~time:t ~payload:i ~aux:(t *. 2.0))
    [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  let rec drain acc =
    match Desim.Calendar_queue.pop q with
    | Some (t, p, a) -> drain ((t, p, a) :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (triple (float 1e-12) int (float 1e-12))))
    "sorted with payload and aux"
    [ (0.5, 3, 1.0); (1.0, 1, 2.0); (2.0, 2, 4.0); (2.5, 4, 5.0); (3.0, 0, 6.0) ]
    (drain [])

let test_calendar_fifo_ties () =
  let q = Desim.Calendar_queue.create () in
  for i = 0 to 9 do
    Desim.Calendar_queue.push q ~time:1.0 ~payload:i ~aux:0.0
  done;
  for expected = 0 to 9 do
    match Desim.Calendar_queue.pop q with
    | Some (_, got, _) -> Alcotest.(check int) "fifo" expected got
    | None -> Alcotest.fail "queue drained early"
  done

let test_calendar_accessor_protocol () =
  let q = Desim.Calendar_queue.create () in
  Desim.Calendar_queue.push q ~time:2.0 ~payload:7 ~aux:0.25;
  Desim.Calendar_queue.push q ~time:1.0 ~payload:9 ~aux:0.75;
  check_float "root time" 1.0 (Desim.Calendar_queue.root_time q);
  Alcotest.(check int) "root payload" 9 (Desim.Calendar_queue.root_payload q);
  check_float "root aux" 0.75 (Desim.Calendar_queue.root_aux q);
  Desim.Calendar_queue.drop_root q;
  Alcotest.(check int) "next payload" 7 (Desim.Calendar_queue.root_payload q);
  Desim.Calendar_queue.drop_root q;
  Alcotest.(check bool) "drained" true (Desim.Calendar_queue.is_empty q);
  Alcotest.check_raises "drop on empty"
    (Invalid_argument "Calendar_queue.drop_root: empty queue") (fun () ->
      Desim.Calendar_queue.drop_root q)

let test_calendar_nan () =
  Alcotest.check_raises "nan" (Invalid_argument "Calendar_queue.push: NaN time")
    (fun () ->
      Desim.Calendar_queue.push
        (Desim.Calendar_queue.create ())
        ~time:nan ~payload:0 ~aux:0.0)

let test_calendar_clear_resets_fifo () =
  let q = Desim.Calendar_queue.create () in
  for i = 0 to 5 do
    Desim.Calendar_queue.push q ~time:(float_of_int i) ~payload:i ~aux:0.0
  done;
  ignore (Desim.Calendar_queue.pop q);
  Desim.Calendar_queue.clear q;
  Alcotest.(check bool) "empty" true (Desim.Calendar_queue.is_empty q);
  (* equal-time FIFO after clear proves the seq counter was reset *)
  Desim.Calendar_queue.push q ~time:1.0 ~payload:10 ~aux:0.0;
  Desim.Calendar_queue.push q ~time:1.0 ~payload:11 ~aux:0.0;
  (match Desim.Calendar_queue.pop q with
  | Some (_, p, _) -> Alcotest.(check int) "fifo restarts" 10 p
  | None -> Alcotest.fail "empty after clear+push");
  Alcotest.(check int) "one left" 1 (Desim.Calendar_queue.length q)

let test_calendar_rewind () =
  (* pushing far in the past of the current window forces a rebuild and
     must not lose ordering or events *)
  let q = Desim.Calendar_queue.create () in
  for i = 0 to 63 do
    Desim.Calendar_queue.push q ~time:(1.0e6 +. float_of_int i) ~payload:i
      ~aux:0.0
  done;
  (match Desim.Calendar_queue.pop q with
  | Some (t, _, _) -> check_float "first" 1.0e6 t
  | None -> Alcotest.fail "empty");
  Desim.Calendar_queue.push q ~time:0.125 ~payload:1000 ~aux:0.0;
  (match Desim.Calendar_queue.pop q with
  | Some (t, p, _) ->
      check_float "rewound" 0.125 t;
      Alcotest.(check int) "payload" 1000 p
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "rest intact" 63 (Desim.Calendar_queue.length q)

(* Bursty then sparse: thousands of near-equal times (everything lands
   in a handful of buckets, forcing row growth and a ring resize), then
   a drain to trigger shrink + width re-adaptation, then a few events
   spread over a vastly larger span (exercising the overflow list), then
   a rewind back to small times. The packed heap runs the same script as
   the order oracle. *)
let test_calendar_resize_stress () =
  let cq = Desim.Calendar_queue.create ~capacity:4 () in
  let ph = Desim.Packed_heap.create () in
  let counter = ref 0 in
  let push time =
    let payload = !counter in
    incr counter;
    Desim.Calendar_queue.push cq ~time ~payload ~aux:(float_of_int payload);
    Desim.Packed_heap.push ph ~time ~payload ~aux:(float_of_int payload)
  in
  let pop_both_equal () =
    match (Desim.Calendar_queue.pop cq, Desim.Packed_heap.pop ph) with
    | Some (ct, cp, ca), Some (pt, pp, pa) ->
        Float.equal ct pt && cp = pp && Float.equal ca pa
    | None, None -> true
    | _ -> false
  in
  for i = 0 to 1999 do
    push (float_of_int (i land 7) /. 8.0)
  done;
  for _ = 1 to 1000 do
    Alcotest.(check bool) "burst drain matches heap" true (pop_both_equal ())
  done;
  for i = 1 to 64 do
    push (float_of_int i *. 1.0e6)
  done;
  for _ = 1 to 1032 do
    Alcotest.(check bool) "sparse drain matches heap" true (pop_both_equal ())
  done;
  for i = 1 to 64 do
    push (float_of_int i /. 4.0)
  done;
  while not (Desim.Calendar_queue.is_empty cq) do
    Alcotest.(check bool) "final drain matches heap" true (pop_both_equal ())
  done;
  Alcotest.(check bool) "heap drained too" true (Desim.Packed_heap.is_empty ph)

(* Model check: the calendar queue must pop exactly the sequence the
   packed heap pops for the same pushes — the simulator's bit-identical
   scheduler swap rests on this. Times come from a coarse grid so exact
   ties are frequent and the FIFO tie-break is really exercised. *)
let qcheck_calendar_matches_packed_heap =
  QCheck.Test.make ~count:300
    ~name:"calendar queue order-equivalent to packed heap"
    QCheck.(list (int_bound 400))
    (fun grid ->
      let cq = Desim.Calendar_queue.create () in
      let ph = Desim.Packed_heap.create () in
      List.iteri
        (fun i k ->
          let t = float_of_int k /. 8.0 in
          Desim.Calendar_queue.push cq ~time:t ~payload:i
            ~aux:(float_of_int i);
          Desim.Packed_heap.push ph ~time:t ~payload:i ~aux:0.0)
        grid;
      let rec drain n =
        match (Desim.Calendar_queue.pop cq, Desim.Packed_heap.pop ph) with
        | Some (ct, cp, ca), Some (pt, pp, _) ->
            Float.equal ct pt && cp = pp
            && Float.equal ca (float_of_int cp)
            && drain (n + 1)
        | None, None -> n = List.length grid
        | _ -> false
      in
      drain 0)

let qcheck_calendar_interleaved_matches =
  (* random push/pop interleaving, including pushes below already
     dequeued times (window rewinds) and long forward jumps (overflow
     migration) *)
  QCheck.Test.make ~count:300
    ~name:"calendar matches packed heap under interleaving"
    QCheck.(list (pair (int_bound 200) bool))
    (fun ops ->
      let cq = Desim.Calendar_queue.create ~capacity:4 () in
      let ph = Desim.Packed_heap.create () in
      let ok = ref true in
      let pop_match () =
        match (Desim.Calendar_queue.pop cq, Desim.Packed_heap.pop ph) with
        | Some (ct, cp, _), Some (pt, pp, _) ->
            Float.equal ct pt && cp = pp
        | None, None -> true
        | _ -> false
      in
      List.iteri
        (fun i (k, do_pop) ->
          (* stretch every 7th time by 1e5 to exercise the overflow *)
          let t =
            float_of_int k /. 4.0
            +. if k mod 7 = 0 then float_of_int k *. 1.0e5 else 0.0
          in
          Desim.Calendar_queue.push cq ~time:t ~payload:i ~aux:0.0;
          Desim.Packed_heap.push ph ~time:t ~payload:i ~aux:0.0;
          if do_pop && not (pop_match ()) then ok := false)
        ops;
      while not (Desim.Calendar_queue.is_empty cq) do
        if not (pop_match ()) then ok := false
      done;
      !ok && Desim.Packed_heap.is_empty ph)

(* ---------- Packed_engine ---------- *)

let test_packed_engine_run () =
  let e = Desim.Packed_engine.create () in
  Desim.Packed_engine.schedule e ~at:2.0 ~payload:2 ~aux:0.2;
  Desim.Packed_engine.schedule e ~at:1.0 ~payload:1 ~aux:0.1;
  Desim.Packed_engine.schedule e ~at:3.0 ~payload:3 ~aux:0.3;
  let seen = ref [] in
  Desim.Packed_engine.run ~until:2.5 e ~handler:(fun p ->
      seen :=
        (Desim.Packed_engine.now e, p, Desim.Packed_engine.aux e) :: !seen);
  Alcotest.(check (list (triple (float 1e-12) int (float 1e-12))))
    "events up to horizon, clock and aux visible in handler"
    [ (1.0, 1, 0.1); (2.0, 2, 0.2) ]
    (List.rev !seen);
  check_float "clock advanced to horizon" 2.5 (Desim.Packed_engine.now e);
  Alcotest.(check int) "third still pending" 1 (Desim.Packed_engine.pending e);
  Alcotest.(check int) "dispatched" 2 (Desim.Packed_engine.dispatched e)

let test_packed_engine_handler_schedules () =
  let e = Desim.Packed_engine.create () in
  Desim.Packed_engine.schedule e ~at:1.0 ~payload:1 ~aux:0.0;
  let count = ref 0 in
  Desim.Packed_engine.run ~until:10.0 e ~handler:(fun n ->
      incr count;
      if n < 5 then
        Desim.Packed_engine.schedule_after e ~delay:1.0 ~payload:(n + 1)
          ~aux:0.0);
  Alcotest.(check int) "cascade" 5 !count

let test_packed_engine_rejects () =
  let e = Desim.Packed_engine.create () in
  Desim.Packed_engine.schedule e ~at:5.0 ~payload:0 ~aux:0.0;
  Alcotest.(check bool) "next" true (Desim.Packed_engine.next e);
  Alcotest.check_raises "past"
    (Invalid_argument "Packed_engine.schedule: event in the past") (fun () ->
      Desim.Packed_engine.schedule e ~at:1.0 ~payload:0 ~aux:0.0);
  Alcotest.check_raises "delay"
    (Invalid_argument "Packed_engine.schedule_after: negative delay")
    (fun () ->
      Desim.Packed_engine.schedule_after e ~delay:(-1.0) ~payload:0 ~aux:0.0)

let test_packed_engine_scheduler_equivalence () =
  (* the same cascading workload on both schedulers dispatches the same
     (time, payload) sequence *)
  let trace scheduler =
    let e = Desim.Packed_engine.create ~scheduler () in
    Alcotest.(check bool)
      "scheduler accessor" true
      (Desim.Packed_engine.scheduler e = scheduler);
    Desim.Packed_engine.schedule e ~at:1.0 ~payload:1 ~aux:0.0;
    Desim.Packed_engine.schedule e ~at:1.0 ~payload:2 ~aux:0.0;
    let seen = ref [] in
    Desim.Packed_engine.run ~until:50.0 e ~handler:(fun p ->
        seen := (Desim.Packed_engine.now e, p) :: !seen;
        if p < 40 then
          Desim.Packed_engine.schedule_after e ~delay:(0.25 *. float_of_int p)
            ~payload:(p + 2) ~aux:0.0);
    List.rev !seen
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "heap and calendar traces identical"
    (trace Desim.Packed_engine.Heap)
    (trace Desim.Packed_engine.Calendar)

let test_packed_engine_clear () =
  List.iter
    (fun scheduler ->
      let e = Desim.Packed_engine.create ~scheduler () in
      Desim.Packed_engine.schedule e ~at:1.0 ~payload:1 ~aux:0.5;
      Desim.Packed_engine.run ~until:2.0 e ~handler:ignore;
      Desim.Packed_engine.schedule e ~at:3.0 ~payload:9 ~aux:0.0;
      Desim.Packed_engine.clear e;
      check_float "clock reset" 0.0 (Desim.Packed_engine.now e);
      Alcotest.(check int) "nothing pending" 0 (Desim.Packed_engine.pending e);
      Alcotest.(check int)
        "dispatch counter reset" 0
        (Desim.Packed_engine.dispatched e);
      (* a cleared engine must behave exactly like a fresh one,
         including FIFO ordering of equal times *)
      Desim.Packed_engine.schedule e ~at:1.0 ~payload:7 ~aux:0.0;
      Desim.Packed_engine.schedule e ~at:1.0 ~payload:8 ~aux:0.0;
      let seen = ref [] in
      Desim.Packed_engine.run ~until:2.0 e ~handler:(fun p ->
          seen := p :: !seen);
      Alcotest.(check (list int)) "fifo after clear" [ 7; 8 ] (List.rev !seen))
    [ Desim.Packed_engine.Heap; Desim.Packed_engine.Calendar ]

let test_packed_engine_next () =
  let e = Desim.Packed_engine.create () in
  Desim.Packed_engine.schedule e ~at:1.5 ~payload:42 ~aux:2.5;
  Alcotest.(check bool) "has event" true (Desim.Packed_engine.next e);
  check_float "clock" 1.5 (Desim.Packed_engine.now e);
  Alcotest.(check int) "payload" 42 (Desim.Packed_engine.payload e);
  check_float "aux" 2.5 (Desim.Packed_engine.aux e);
  Alcotest.(check bool) "drained" false (Desim.Packed_engine.next e)

let test_packed_engine_window () =
  (* advance_until is run with a strict bound: an event at exactly the
     window edge must stay pending (the sharded driver schedules
     edge-stamped cross-shard messages before reopening the window),
     and next_time must report it for the next lookahead computation. *)
  List.iter
    (fun scheduler ->
      let e = Desim.Packed_engine.create ~scheduler () in
      Desim.Packed_engine.schedule e ~at:1.0 ~payload:1 ~aux:0.0;
      Desim.Packed_engine.schedule e ~at:2.0 ~payload:2 ~aux:0.0;
      Desim.Packed_engine.schedule e ~at:3.0 ~payload:3 ~aux:0.0;
      check_float "next_time sees earliest" 1.0
        (Desim.Packed_engine.next_time e);
      let seen = ref [] in
      Desim.Packed_engine.advance_until ~upto:2.0 e ~handler:(fun p ->
          seen := p :: !seen);
      Alcotest.(check (list int)) "strictly before the edge" [ 1 ]
        (List.rev !seen);
      check_float "clock at window edge" 2.0 (Desim.Packed_engine.now e);
      check_float "edge event still pending" 2.0
        (Desim.Packed_engine.next_time e);
      (* reopening the window dispatches the edge event first *)
      Desim.Packed_engine.advance_until ~upto:3.0 e ~handler:(fun p ->
          seen := p :: !seen);
      Alcotest.(check (list int)) "edge event in next window" [ 1; 2 ]
        (List.rev !seen);
      Desim.Packed_engine.advance_until ~upto:10.0 e ~handler:(fun p ->
          seen := p :: !seen);
      Alcotest.(check (list int)) "drained" [ 1; 2; 3 ] (List.rev !seen);
      check_float "empty queue reports infinity" infinity
        (Desim.Packed_engine.next_time e);
      check_float "clock tiles to upto even when empty" 10.0
        (Desim.Packed_engine.now e))
    [ Desim.Packed_engine.Heap; Desim.Packed_engine.Calendar ]

let () =
  Alcotest.run "desim"
    [
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "nan rejected" `Quick test_heap_nan;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          QCheck_alcotest.to_alcotest qcheck_heap_sorts;
          QCheck_alcotest.to_alcotest qcheck_heap_preserves_multiset;
        ] );
      ( "packed_heap",
        [
          Alcotest.test_case "ordering" `Quick test_packed_ordering;
          Alcotest.test_case "fifo bursts" `Quick test_packed_fifo_bursts;
          Alcotest.test_case "accessor protocol" `Quick
            test_packed_accessor_protocol;
          Alcotest.test_case "nan rejected" `Quick test_packed_nan;
          QCheck_alcotest.to_alcotest qcheck_packed_matches_event_heap;
          QCheck_alcotest.to_alcotest qcheck_packed_interleaved_pops;
        ] );
      ( "calendar_queue",
        [
          Alcotest.test_case "ordering" `Quick test_calendar_ordering;
          Alcotest.test_case "fifo ties" `Quick test_calendar_fifo_ties;
          Alcotest.test_case "accessor protocol" `Quick
            test_calendar_accessor_protocol;
          Alcotest.test_case "nan rejected" `Quick test_calendar_nan;
          Alcotest.test_case "clear resets fifo" `Quick
            test_calendar_clear_resets_fifo;
          Alcotest.test_case "past-window rewind" `Quick test_calendar_rewind;
          Alcotest.test_case "resize stress (bursty then sparse)" `Quick
            test_calendar_resize_stress;
          QCheck_alcotest.to_alcotest qcheck_calendar_matches_packed_heap;
          QCheck_alcotest.to_alcotest qcheck_calendar_interleaved_matches;
        ] );
      ( "packed_engine",
        [
          Alcotest.test_case "run order and clock" `Quick
            test_packed_engine_run;
          Alcotest.test_case "handler schedules more" `Quick
            test_packed_engine_handler_schedules;
          Alcotest.test_case "rejects invalid schedules" `Quick
            test_packed_engine_rejects;
          Alcotest.test_case "scheduler equivalence" `Quick
            test_packed_engine_scheduler_equivalence;
          Alcotest.test_case "clear" `Quick test_packed_engine_clear;
          Alcotest.test_case "next/payload/aux" `Quick
            test_packed_engine_next;
          Alcotest.test_case "strict window (advance_until/next_time)" `Quick
            test_packed_engine_window;
        ] );
    ]
