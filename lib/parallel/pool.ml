type t = {
  size : int;  (* total domains incl. the caller *)
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_available : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let domains t = t.size

(* Workers drain the queue until the pool is closed AND empty, so a
   shutdown never drops queued tasks. *)
let rec worker_loop pool =
  Mutex.lock pool.mutex;
  let rec next () =
    if Queue.is_empty pool.queue then
      if pool.closed then None
      else begin
        Condition.wait pool.work_available pool.mutex;
        next ()
      end
    else Some (Queue.pop pool.queue)
  in
  let task = next () in
  Mutex.unlock pool.mutex;
  match task with
  | None -> ()
  | Some run ->
      run ();
      worker_loop pool

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need domains >= 1";
  let pool =
    {
      size = domains;
      queue = Queue.create ();
      mutex = Mutex.create ();
      work_available = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
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
