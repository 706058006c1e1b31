type t = {
  size : int;  (* total domains incl. the caller *)
  queue : (unit -> unit) Queue.t;
  inboxes : (unit -> unit) Queue.t array;
      (* hosting requests addressed to worker [i]; index 0 stays empty,
         the creating domain hosts with a plain Thread.create *)
  hosted : int array;  (* live hosted threads per domain index *)
  ended : Thread.t list array;
      (* hosted threads of worker [i] whose body has returned; the
         worker joins them before its domain may terminate *)
  mutex : Mutex.t;
  work_available : Condition.t;
      (* also broadcast when a hosted thread ends: that is reaping work
         for its worker and what [shutdown] waits for *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let domains t = t.size

(* What a worker does next, in priority order: reap its ended hosted
   threads, start the threads it was asked to host, run a shared task.
   Its own inbox comes before the shared queue, and nothing but this
   loop reads an inbox, so a help loop on another domain never starts a
   hosting request. Workers drain the queue until the pool is closed
   AND empty, so a shutdown never drops queued tasks. *)
let rec worker_loop pool i =
  Mutex.lock pool.mutex;
  let rec next () =
    match pool.ended.(i) with
    | _ :: _ as ended ->
        pool.ended.(i) <- [];
        Some (fun () -> List.iter Thread.join ended)
    | [] ->
        if not (Queue.is_empty pool.inboxes.(i)) then
          Some (Queue.pop pool.inboxes.(i))
        else if not (Queue.is_empty pool.queue) then
          Some (Queue.pop pool.queue)
        else if pool.closed then None
        else begin
          Condition.wait pool.work_available pool.mutex;
          next ()
        end
  in
  let task = next () in
  Mutex.unlock pool.mutex;
  match task with
  | None -> ()
  | Some run ->
      run ();
      worker_loop pool i

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need domains >= 1";
  let pool =
    {
      size = domains;
      queue = Queue.create ();
      inboxes = Array.init domains (fun _ -> Queue.create ());
      hosted = Array.make domains 0;
      ended = Array.make domains [];
      mutex = Mutex.create ();
      work_available = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

(* Lowest index among the domains with the fewest live hosted threads. *)
let least_loaded hosted =
  let best = ref 0 in
  Array.iteri (fun i n -> if n < hosted.(!best) then best := i) hosted;
  !best

(* Gives domain [i]'s slot back; [join_me] leaves the calling thread
   for its worker to join. *)
let release pool i ~join_me =
  Mutex.protect pool.mutex (fun () ->
      pool.hosted.(i) <- pool.hosted.(i) - 1;
      if join_me then pool.ended.(i) <- Thread.self () :: pool.ended.(i);
      Condition.broadcast pool.work_available)

let run_hosted pool i f ~join_me =
  Fun.protect ~finally:(fun () -> release pool i ~join_me) (fun () -> f i)

let host pool f =
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.host: pool is shut down"
  end;
  let i = least_loaded pool.hosted in
  pool.hosted.(i) <- pool.hosted.(i) + 1;
  if i > 0 then begin
    (* A worker that cannot start a thread serves [f] itself rather
       than drop the request. *)
    Queue.push
      (fun () ->
        let run () = run_hosted pool i f ~join_me:true in
        match Thread.create run () with
        | _ -> ()
        | exception _ -> run_hosted pool i f ~join_me:false)
      pool.inboxes.(i);
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex;
    i
  end
  else begin
    Mutex.unlock pool.mutex;
    match Thread.create (fun () -> run_hosted pool 0 f ~join_me:false) () with
    | _ -> 0
    | exception e ->
        release pool 0 ~join_me:false;
        raise e
  end

let hosted pool = Mutex.protect pool.mutex (fun () -> Array.copy pool.hosted)

(* Hosted threads end before the workers are told to stop, so every
   ended thread is on its worker's [ended] list when the worker sees
   [closed], and is joined before the worker's domain terminates. *)
let shutdown pool =
  Mutex.lock pool.mutex;
  while Array.exists (fun n -> n > 0) pool.hosted do
    Condition.wait pool.work_available pool.mutex
  done;
  let workers = pool.workers in
  pool.closed <- true;
  pool.workers <- [];
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

(* One batch per map call. [remaining] is the only cross-domain handoff:
   every task's writes happen before its decrement, and the caller reads
   results only after observing zero, so the result array needs no locks
   (each index is written by exactly one task). *)
type batch = {
  remaining : int Atomic.t;
  finished : Mutex.t;
  all_done : Condition.t;
  first_error : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let run_task batch compute store =
  (match compute () with
  | v -> store v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore
        (Atomic.compare_and_set batch.first_error None (Some (e, bt))));
  if Atomic.fetch_and_add batch.remaining (-1) = 1 then begin
    Mutex.lock batch.finished;
    Condition.broadcast batch.all_done;
    Mutex.unlock batch.finished
  end

(* The caller keeps popping tasks (its own batch's or, when nested,
   anyone's) while its batch is outstanding, and only blocks once the
   queue is empty — every pending task is then running on some domain,
   so progress is guaranteed and nested maps cannot deadlock. *)
let rec help pool batch =
  if Atomic.get batch.remaining > 0 then begin
    Mutex.lock pool.mutex;
    let task =
      if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue)
    in
    Mutex.unlock pool.mutex;
    match task with
    | Some run ->
        run ();
        help pool batch
    | None ->
        Mutex.lock batch.finished;
        while Atomic.get batch.remaining > 0 do
          Condition.wait batch.all_done batch.finished
        done;
        Mutex.unlock batch.finished
  end

let map_array pool f xs =
  let n = Array.length xs in
  if pool.size = 1 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let batch =
      {
        remaining = Atomic.make n;
        finished = Mutex.create ();
        all_done = Condition.create ();
        first_error = Atomic.make None;
      }
    in
    Mutex.lock pool.mutex;
    if pool.closed then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.map_array: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.push
        (fun () ->
          run_task batch (fun () -> f xs.(i)) (fun v -> results.(i) <- Some v))
        pool.queue
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex;
    help pool batch;
    match Atomic.get batch.first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

let map pool f xs = Array.to_list (map_array pool f (Array.of_list xs))

(* Index-space map: the repeated-round shape of the sharded simulator
   submits the same [n] shard tasks every window, so building an input
   array per round would be pure allocation noise. Semantically
   [map_array pool f [|0; ...; n-1|]]. *)
let map_int pool f n =
  if n < 0 then invalid_arg "Pool.map_int: negative count";
  if pool.size = 1 || n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let batch =
      {
        remaining = Atomic.make n;
        finished = Mutex.create ();
        all_done = Condition.create ();
        first_error = Atomic.make None;
      }
    in
    Mutex.lock pool.mutex;
    if pool.closed then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.map_int: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.push
        (fun () ->
          run_task batch (fun () -> f i) (fun v -> results.(i) <- Some v))
        pool.queue
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex;
    help pool batch;
    match Atomic.get batch.first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

(* ---------- default pool ---------- *)

let default_lock = Mutex.create ()
let default_pool = ref None
let default_size = ref None

let with_default_lock f =
  Mutex.lock default_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock default_lock) f

let set_default_domains n =
  if n < 1 then invalid_arg "Pool.set_default_domains: need domains >= 1";
  let stale =
    with_default_lock (fun () ->
        default_size := Some n;
        match !default_pool with
        | Some p when p.size <> n ->
            default_pool := None;
            Some p
        | _ -> None)
  in
  Option.iter shutdown stale

let default () =
  with_default_lock (fun () ->
      match !default_pool with
      | Some p -> p
      | None ->
          let domains =
            match !default_size with
            | Some n -> n
            | None -> Domain.recommended_domain_count ()
          in
          let p = create ~domains in
          default_pool := Some p;
          p)

(* Parked workers sit in Condition.wait at process exit; join them so
   the runtime shuts down from a quiescent state. *)
let () =
  at_exit (fun () ->
      let p =
        with_default_lock (fun () ->
            let p = !default_pool in
            default_pool := None;
            p)
      in
      Option.iter shutdown p)
