open Prob

(* Re-exported so callers pick a future-event set with
   [Wsim.Cluster.Calendar] and no direct Desim dependency. *)
type scheduler = Desim.Packed_engine.scheduler = Heap | Calendar

type config = {
  n : int;
  arrival_rate : float;
  spawn_rate : float;
  service : Dist.service;
  speeds : float array option;
  policy : Policy.t;
  initial_load : int;
  placement : int;
  batch_mean : float;
  scheduler : scheduler;
}

let default =
  {
    n = 128;
    arrival_rate = 0.9;
    spawn_rate = 0.0;
    service = Dist.Exponential;
    speeds = None;
    policy = Policy.simple;
    initial_load = 0;
    placement = 1;
    batch_mean = 1.0;
    scheduler = Heap;
  }

type result = {
  duration : float;
  completed : int;
  mean_sojourn : float;
  sojourn_ci95 : float;
  sojourn_p50 : float;
  sojourn_p95 : float;
  sojourn_p99 : float;
  mean_load : float;
  tail : int -> float;
  steal_attempts : int;
  steal_successes : int;
  tasks_stolen : int;
  rebalances : int;
  makespan : float;
}

(* The processor set is partitioned into contiguous shards, each owning
   a {!Desim.Packed_engine}, an RNG stream, its processors' task queues
   and its statistics. One shard (the {!create} entry) runs every
   policy; several shards (the {!Shard} entry) exchange cross-shard
   steals as timestamped {!Mailbox} messages and advance in
   conservative lookahead windows (see the round loop in
   [run_rounds]).

   Per-processor scalars live in flat Bigarray lanes indexed by
   processor id instead of records: lanes sit outside the OCaml heap,
   so shards mutating their own slices share no cache lines with the
   GC and no headers with each other. *)

type flane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ilane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type blane =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* all-float record: flat, so its stores stay unboxed where a [mutable
   float] field of a mixed record would box (zero-alloc lint) *)
type floats = {
  mutable transit : float; (* cross-shard steals' in-flight task-time *)
  mutable last_completion : float;
}

type shard = {
  sid : int;
  lo : int; (* first owned processor id *)
  hi : int; (* one past the last owned processor id *)
  rng : Rng.t;
  engine : Desim.Packed_engine.t;
  queues : Task_queues.t; (* processor [p]'s queue is [p - lo] *)
  sojourn : Stats.t;
  p50 : P2_quantile.t;
  p95 : P2_quantile.t;
  p99 : P2_quantile.t;
  occupancy : Histogram.Counts.t; (* time-weighted load tallies *)
  mutable occ : int array; (* occ.(i): owned processors with load >= i *)
  f : floats;
  transit_avg : Timeavg.t; (* Transfer: in-flight task count over time *)
  mutable transit_window_open : bool;
      (* whether transit_avg has been re-based at the warm-up boundary *)
  mutable in_transit : int;
  mutable total_tasks : int; (* in queues + in service + in transit *)
  mutable steal_attempts : int;
  mutable steal_successes : int;
  mutable tasks_stolen : int;
  mutable rebalances : int;
  mutable scratch : float array; (* reused stamp buffer for multi-steals *)
  outboxes : Mailbox.t array; (* row [sid] of the mailbox matrix *)
  mutable handler : int -> unit; (* dispatch closure, built once *)
}

type t = {
  cfg : config;
  latency : float;
  (* contiguous partition: the first [rem] shards own [base + 1]
     processors, the rest own [base]; [cut = rem * (base + 1)] is the
     first id of the equal-sized tail *)
  base : int;
  rem : int;
  cut : int;
  in_service : flane; (* stamp of the task being served *)
  load_since : flane; (* start of the current load level *)
  busy : blane;
  speeds : flane option;
  (* policy-specific lanes, of length n when the policy uses them and 0
     otherwise *)
  waiting : blane; (* Transfer: a stolen task is in flight toward p *)
  spawn_gen : ilane; (* invalidates Spawn *)
  timer_gen : ilane; (* invalidates Steal_tick / Rebalance_tick *)
  shards : shard array;
  mailboxes : Mailbox.t array array; (* mailboxes.(src).(dst) *)
  mutable warmup : float;
  mutable horizon : float;
}

(* ---- packed event encoding ----

   Events are immediate ints for the allocation-free engine:

     bits 0..2    tag (0 Arrival, 1 Completion, 2 Steal_req, 3 Delivery,
                       4 Spawn, 5 Steal_tick, 6 Rebalance_tick)
     bits 3..26   processor id [a] (so n <= 2^24)
     bits 27..62  [b]: the thief of a Steal_req, or the generation of a
                  timer event (0 for the others)

   A Delivery's payload, the stolen task's arrival stamp, rides the
   engine's auxiliary float lane. Generations count modulo 2^36, the
   width of [b]: a stale timer could only alias a live one after 2^36
   re-arms while it is pending. *)

let tag_arrival = 0
let tag_completion = 1
let tag_steal_req = 2
let tag_delivery = 3
let tag_spawn = 4
let tag_steal_tick = 5
let tag_rebalance_tick = 6
let max_procs = 1 lsl 24
let gen_mask = (1 lsl 36) - 1
let[@inline] ev ~tag ~a ~b = tag lor (a lsl 3) lor (b lsl 27)
let[@inline] ev_tag p = p land 7
let[@inline] ev_a p = (p lsr 3) land (max_procs - 1)
let[@inline] ev_b p = p lsr 27
let[@inline] bump_gen (lane : ilane) p = lane.{p} <- (lane.{p} + 1) land gen_mask

let[@inline] shard_of t id =
  if id < t.cut then id / (t.base + 1) else t.rem + ((id - t.cut) / t.base)

let[@inline] queued sh p = Task_queues.length sh.queues (p - sh.lo)
let[@inline] load t sh p = queued sh p + t.busy.{p}
let[@inline] now sh = Desim.Packed_engine.now sh.engine

let events_dispatched t =
  Array.fold_left
    (fun acc sh -> acc + Desim.Packed_engine.dispatched sh.engine)
    0 t.shards

(* ---- incremental load-level occupancy ----

   A processor's load only ever changes by exactly 1, in exactly three
   places: [add_task] (+1), [remove_tail_task] (-1) and [on_completion]
   (-1; both its branches net one task out). Maintaining the >= i
   counts at those three hooks makes [run_observed]'s tail a single
   array read instead of an O(n) scan per sampled level. *)

(* lint: allow zero-alloc: doubling growth, amortized O(1) and absent in steady state *)
let occ_grow sh level =
  let len = Array.length sh.occ in
  let bigger = Array.make (max (2 * len) (level + 1)) 0 in
  Array.blit sh.occ 0 bigger 0 len;
  sh.occ <- bigger

(* a processor's load just rose to [level] *)
let[@inline] occ_raise sh level =
  if level >= Array.length sh.occ then occ_grow sh level;
  sh.occ.(level) <- sh.occ.(level) + 1

(* a processor's load just fell from [level] (raised earlier, so the
   slot exists) *)
let[@inline] occ_fall sh level = sh.occ.(level) <- sh.occ.(level) - 1

(* ---- time-weighted occupancy ---- *)

(* [load] is p's load since [load_since]; callers pass it because they
   have just read it (a lane read saved per event) *)
let note_load t sh p ~load =
  let tnow = now sh in
  if tnow > t.warmup then begin
    (* branchy max: Float.max is not inlined without flambda, and both
       operands are non-NaN times *)
    let since = t.load_since.{p} in
    let from = if since > t.warmup then since else t.warmup in
    if tnow > from then
      Histogram.Counts.weighted_add sh.occupancy load (tnow -. from)
  end;
  t.load_since.{p} <- tnow

(* ---- timers ---- *)

let[@inline] exp_delay sh rate = Dist.exponential sh.rng ~rate

let arm_spawn t sh p =
  bump_gen t.spawn_gen p;
  if t.cfg.spawn_rate > 0.0 && load t sh p >= 1 then
    Desim.Packed_engine.schedule_after sh.engine
      ~delay:(exp_delay sh t.cfg.spawn_rate)
      ~payload:(ev ~tag:tag_spawn ~a:p ~b:t.spawn_gen.{p})
      ~aux:0.0

let arm_steal_tick t sh p ~retry_rate =
  bump_gen t.timer_gen p;
  if retry_rate > 0.0 && load t sh p = 0 then
    Desim.Packed_engine.schedule_after sh.engine
      ~delay:(exp_delay sh retry_rate)
      ~payload:(ev ~tag:tag_steal_tick ~a:p ~b:t.timer_gen.{p})
      ~aux:0.0

let arm_rebalance t sh p ~rate =
  bump_gen t.timer_gen p;
  let r = rate (load t sh p) in
  if r > 0.0 then
    Desim.Packed_engine.schedule_after sh.engine ~delay:(exp_delay sh r)
      ~payload:(ev ~tag:tag_rebalance_tick ~a:p ~b:t.timer_gen.{p})
      ~aux:0.0

(* Called after p's load changed from [old_load] to [new_load]: keep the
   load-sensitive timers consistent. *)
let sync_timers t sh p ~old_load ~new_load =
  if t.cfg.spawn_rate > 0.0 then begin
    if old_load = 0 && new_load > 0 then arm_spawn t sh p
    else if old_load > 0 && new_load = 0 then bump_gen t.spawn_gen p
  end;
  match t.cfg.policy with
  | Policy.Repeated { retry_rate; _ } ->
      if old_load = 0 && new_load > 0 then bump_gen t.timer_gen p
      else if old_load > 0 && new_load = 0 then
        arm_steal_tick t sh p ~retry_rate
  | Policy.Rebalance { rate } ->
      if not (Float.equal (rate old_load) (rate new_load)) then
        arm_rebalance t sh p ~rate
  | Policy.No_stealing | Policy.On_empty _ | Policy.Preemptive _
  | Policy.Transfer _ | Policy.Steal_half _ | Policy.Ring_steal _ ->
      ()

(* ---- service ---- *)

let[@inline] start_service t sh p stamp =
  t.busy.{p} <- 1;
  t.in_service.{p} <- stamp;
  let s = Dist.service_mean_one sh.rng t.cfg.service in
  let duration = match t.speeds with None -> s | Some sp -> s /. sp.{p} in
  Desim.Packed_engine.schedule_after sh.engine ~delay:duration
    ~payload:(ev ~tag:tag_completion ~a:p ~b:0)
    ~aux:0.0

(* Add one task (with its original arrival stamp) to p. *)
let[@inline] add_task t sh p stamp =
  let old_load = load t sh p in
  note_load t sh p ~load:old_load;
  if t.busy.{p} = 1 then Task_queues.push_back sh.queues (p - sh.lo) stamp
  else start_service t sh p stamp;
  sh.total_tasks <- sh.total_tasks + 1;
  occ_raise sh (old_load + 1);
  sync_timers t sh p ~old_load ~new_load:(old_load + 1)

(* Remove one task from the tail of v's queue, returning its stamp. The
   in-service task is never taken, so completions stay valid. *)
let[@inline] remove_tail_task t sh v =
  let old_load = load t sh v in
  note_load t sh v ~load:old_load;
  let stamp = Task_queues.pop_back sh.queues (v - sh.lo) in
  sh.total_tasks <- sh.total_tasks - 1;
  occ_fall sh old_load;
  sync_timers t sh v ~old_load ~new_load:(old_load - 1);
  stamp

(* ---- stealing ---- *)

let[@inline] random_other t sh self =
  let r = Rng.int sh.rng (t.cfg.n - 1) in
  if r >= self then r + 1 else r

(* Most loaded of [remaining] further uniform probes (with replacement,
   excluding the thief), per §3.3. Written as a tail recursion over int
   arguments: int refs would allocate on every steal attempt. *)
let rec victim_probe t sh ~thief ~remaining best best_load =
  if remaining = 0 then best
  else begin
    let candidate = random_other t sh thief in
    let l = load t sh candidate in
    if l > best_load then
      victim_probe t sh ~thief ~remaining:(remaining - 1) candidate l
    else victim_probe t sh ~thief ~remaining:(remaining - 1) best best_load
  end

(* How many tasks a probing steal (On_empty, Steal_half, Repeated) takes
   from a victim at load [vload]; 0 means the attempt misses. *)
let[@inline] steal_count_for t ~vload =
  match t.cfg.policy with
  | Policy.On_empty { threshold; steal_count; _ } ->
      if vload >= threshold then min steal_count (vload - 1) else 0
  | Policy.Steal_half { threshold; _ } ->
      if vload >= threshold then vload / 2 else 0
  | Policy.Repeated { threshold; _ } -> if vload >= threshold then 1 else 0
  | Policy.No_stealing | Policy.Preemptive _ | Policy.Transfer _
  | Policy.Rebalance _ | Policy.Ring_steal _ ->
      0

(* Pop [count] stamps off v's tail into the shard's staging buffer,
   keeping their relative FIFO order. The buffer is reused, never a
   fresh array per steal: nothing [add_task] calls steals
   synchronously, so it cannot be clobbered reentrantly. *)
let[@inline] pop_into_scratch t sh ~victim ~count =
  if count > Array.length sh.scratch then
    (* lint: allow zero-alloc: scratch doubling, amortized O(1) and absent once warmed up *)
    sh.scratch <- Array.make (max count (2 * Array.length sh.scratch)) 0.0;
  let stamps = sh.scratch in
  for i = count - 1 downto 0 do
    stamps.(i) <- remove_tail_task t sh victim
  done;
  stamps

let transfer_tasks t sh ~victim ~thief ~count =
  let stamps = pop_into_scratch t sh ~victim ~count in
  for i = 0 to count - 1 do
    add_task t sh thief stamps.(i)
  done

(* A probing steal by the idle processor [p]: the victim is the most
   loaded of [choices] uniform probes over the whole cluster. A victim
   on this shard is robbed synchronously; one on another shard (only
   with several shards, where [choices = 1]) receives a steal request
   stamped one transfer latency ahead: the victim decides against its
   own load at that future time, which is what nonzero transfer time
   means physically and what makes the lookahead sound. *)
let attempt_steal t sh p ~choices =
  sh.steal_attempts <- sh.steal_attempts + 1;
  let first = random_other t sh p in
  if first >= sh.lo && first < sh.hi then begin
    let v =
      if choices > 1 then
        victim_probe t sh ~thief:p ~remaining:(choices - 1) first
          (load t sh first)
      else first
    in
    let count = steal_count_for t ~vload:(load t sh v) in
    if count > 0 then begin
      sh.steal_successes <- sh.steal_successes + 1;
      sh.tasks_stolen <- sh.tasks_stolen + count;
      transfer_tasks t sh ~victim:v ~thief:p ~count
    end
  end
  else
    Mailbox.push sh.outboxes.(shard_of t first)
      ~time:(now sh +. t.latency)
      ~payload:(ev ~tag:tag_steal_req ~a:first ~b:p)
      ~aux:0.0

(* Victim side of a remote steal: grant against the local load, ship
   each stolen stamp as its own Delivery one further latency out (FIFO
   through the mailbox, so the thief enqueues them in the same relative
   order a local transfer would). The stolen tasks' time in flight is
   integrated here, clipped to the measurement window. *)
let on_steal_req t sh ~victim ~thief =
  let count = steal_count_for t ~vload:(load t sh victim) in
  if count > 0 then begin
    sh.steal_successes <- sh.steal_successes + 1;
    sh.tasks_stolen <- sh.tasks_stolen + count;
    let stamps = pop_into_scratch t sh ~victim ~count in
    let tnow = now sh in
    let arrive = tnow +. t.latency in
    let box = sh.outboxes.(shard_of t thief) in
    for i = 0 to count - 1 do
      Mailbox.push box ~time:arrive
        ~payload:(ev ~tag:tag_delivery ~a:thief ~b:0)
        ~aux:stamps.(i)
    done;
    let from = if tnow > t.warmup then tnow else t.warmup in
    let til = if arrive < t.horizon then arrive else t.horizon in
    if til > from then
      sh.f.transit <- sh.f.transit +. (float_of_int count *. (til -. from))
  end

(* Victim uniform among the thief's 2·radius nearest ring neighbours. *)
let attempt_ring_steal t sh p ~threshold ~radius =
  sh.steal_attempts <- sh.steal_attempts + 1;
  let n = t.cfg.n in
  let radius = min radius ((n - 1) / 2) in
  let radius = max radius 1 in
  let k = 1 + Rng.int sh.rng (2 * radius) in
  let offset = if k <= radius then k else radius - k in
  let victim = (((p + offset) mod n) + n) mod n in
  if load t sh victim >= threshold then begin
    sh.steal_successes <- sh.steal_successes + 1;
    sh.tasks_stolen <- sh.tasks_stolen + 1;
    transfer_tasks t sh ~victim ~thief:p ~count:1
  end

let attempt_preemptive t sh p ~offset =
  sh.steal_attempts <- sh.steal_attempts + 1;
  let victim = random_other t sh p in
  if load t sh victim >= load t sh p + offset then begin
    sh.steal_successes <- sh.steal_successes + 1;
    sh.tasks_stolen <- sh.tasks_stolen + 1;
    transfer_tasks t sh ~victim ~thief:p ~count:1
  end

(* A successful steal removes the task from the victim now and delivers
   it after an exponential (stages = 1) or Erlang delay; the task stays
   "in the system" while in flight. *)
let attempt_transfer t sh p ~transfer_rate ~threshold ~stages =
  sh.steal_attempts <- sh.steal_attempts + 1;
  let victim = random_other t sh p in
  if load t sh victim >= threshold then begin
    sh.steal_successes <- sh.steal_successes + 1;
    sh.tasks_stolen <- sh.tasks_stolen + 1;
    let stamp = remove_tail_task t sh victim in
    sh.total_tasks <- sh.total_tasks + 1;
    sh.in_transit <- sh.in_transit + 1;
    Timeavg.update sh.transit_avg ~now:(now sh)
      ~value:(float_of_int sh.in_transit);
    t.waiting.{p} <- 1;
    let delay =
      if stages <= 1 then exp_delay sh transfer_rate
      else
        Dist.erlang sh.rng ~k:stages
          ~rate:(float_of_int stages *. transfer_rate)
    in
    Desim.Packed_engine.schedule_after sh.engine ~delay
      ~payload:(ev ~tag:tag_delivery ~a:p ~b:0)
      ~aux:stamp
  end

let do_rebalance t sh p ~rate =
  let q = random_other t sh p in
  let lp = load t sh p and lq = load t sh q in
  (* scalar selects, not a destructured tuple: the tuple would be a
     real allocation on the rebalance path (zero-alloc lint) *)
  let swap = lp >= lq in
  let big = if swap then p else q in
  let small = if swap then q else p in
  let lb = if swap then lp else lq in
  let ls = if swap then lq else lp in
  let keep = (lb + ls + 1) / 2 in
  (* the bigger side keeps its in-service task, so it can spare at most
     its queued tasks *)
  let move = min (lb - keep) (queued sh big) in
  if move > 0 then begin
    sh.rebalances <- sh.rebalances + 1;
    transfer_tasks t sh ~victim:big ~thief:small ~count:move
  end;
  arm_rebalance t sh p ~rate

(* ---- event handlers ---- *)

(* [left] is p's load after the completion *)
let post_completion_policy t sh p ~left =
  match t.cfg.policy with
  | Policy.No_stealing | Policy.Rebalance _ -> ()
  | Policy.On_empty { choices; _ } | Policy.Steal_half { choices; _ } ->
      if left = 0 then attempt_steal t sh p ~choices
  | Policy.Repeated { retry_rate; _ } ->
      if left = 0 then begin
        attempt_steal t sh p ~choices:1;
        if load t sh p = 0 then arm_steal_tick t sh p ~retry_rate
      end
  | Policy.Preemptive { begin_at; offset } ->
      if left <= begin_at then attempt_preemptive t sh p ~offset
  | Policy.Transfer { transfer_rate; threshold; stages } ->
      if left = 0 && t.waiting.{p} = 0 then
        attempt_transfer t sh p ~transfer_rate ~threshold ~stages
  | Policy.Ring_steal { threshold; radius } ->
      if left = 0 then attempt_ring_steal t sh p ~threshold ~radius

let on_completion t sh p =
  let old_load = load t sh p in
  note_load t sh p ~load:old_load;
  let tnow = now sh in
  if tnow >= t.warmup then begin
    let sojourn = tnow -. t.in_service.{p} in
    Stats.add sh.sojourn sojourn;
    P2_quantile.add sh.p50 sojourn;
    P2_quantile.add sh.p95 sojourn;
    P2_quantile.add sh.p99 sojourn
  end;
  sh.total_tasks <- sh.total_tasks - 1;
  sh.f.last_completion <- tnow;
  if queued sh p = 0 then begin
    t.busy.{p} <- 0;
    t.in_service.{p} <- nan
  end
  else start_service t sh p (Task_queues.pop_front sh.queues (p - sh.lo));
  occ_fall sh old_load;
  sync_timers t sh p ~old_load ~new_load:(old_load - 1);
  post_completion_policy t sh p ~left:(old_load - 1)

(* With placement > 1, the arriving task joins the shortest of [placement]
   uniformly chosen queues (the supermarket discipline of §3.3's
   motivation); with placement = 1 it stays at its generating processor,
   which for independent Poisson streams is the same process. Tail
   recursion over ints for the same reason as [victim_probe]. *)
let rec placement_probe t sh ~remaining best best_load =
  if remaining = 0 then best
  else begin
    let candidate = Rng.int sh.rng t.cfg.n in
    let l = load t sh candidate in
    if l < best_load then
      placement_probe t sh ~remaining:(remaining - 1) candidate l
    else placement_probe t sh ~remaining:(remaining - 1) best best_load
  end

let placement_target t sh p =
  if t.cfg.placement <= 1 then p
  else begin
    let first = Rng.int sh.rng t.cfg.n in
    placement_probe t sh ~remaining:(t.cfg.placement - 1) first
      (load t sh first)
  end

let on_arrival t sh p =
  if t.cfg.arrival_rate > 0.0 then
    Desim.Packed_engine.schedule_after sh.engine
      ~delay:(exp_delay sh t.cfg.arrival_rate)
      ~payload:(ev ~tag:tag_arrival ~a:p ~b:0)
      ~aux:0.0;
  let target = placement_target t sh p in
  if t.cfg.batch_mean <= 1.0 then add_task t sh target (now sh)
  else
    (* a bursty arrival event delivers a geometric batch to one target *)
    for _ = 1 to Dist.geometric sh.rng ~mean:t.cfg.batch_mean do
      add_task t sh target (now sh)
    done

let on_spawn t sh p gen =
  if gen = t.spawn_gen.{p} && load t sh p >= 1 then begin
    add_task t sh p (now sh);
    (* add_task's sync does not re-arm on busy->busy; keep spawning *)
    if load t sh p >= 1 then arm_spawn t sh p
  end

let on_steal_tick t sh p gen ~retry_rate =
  if gen = t.timer_gen.{p} && load t sh p = 0 then begin
    attempt_steal t sh p ~choices:1;
    if load t sh p = 0 then arm_steal_tick t sh p ~retry_rate
  end

(* A stolen task lands: from a Transfer steal on this shard, or from a
   cross-shard steal (whose in-flight time [on_steal_req] integrated). *)
let[@inline] on_delivery t sh p stamp =
  (match t.cfg.policy with
  | Policy.Transfer _ ->
      sh.in_transit <- sh.in_transit - 1;
      sh.total_tasks <- sh.total_tasks - 1 (* re-added by add_task below *);
      Timeavg.update sh.transit_avg ~now:(now sh)
        ~value:(float_of_int sh.in_transit);
      t.waiting.{p} <- 0
  | Policy.No_stealing | Policy.On_empty _ | Policy.Preemptive _
  | Policy.Repeated _ | Policy.Rebalance _ | Policy.Steal_half _
  | Policy.Ring_steal _ ->
      ());
  add_task t sh p stamp

let handle t sh packed =
  if (not sh.transit_window_open) && now sh >= t.warmup then begin
    (* start measuring the in-transit average at the warm-up boundary,
       keeping the current in-flight count as the initial value *)
    Timeavg.reset sh.transit_avg ~now:t.warmup;
    sh.transit_window_open <- true
  end;
  let p = ev_a packed in
  match ev_tag packed with
  | 0 (* Arrival *) -> on_arrival t sh p
  | 1 (* Completion *) -> on_completion t sh p
  | 2 (* Steal_req *) -> on_steal_req t sh ~victim:p ~thief:(ev_b packed)
  | 3 (* Delivery *) -> on_delivery t sh p (Desim.Packed_engine.aux sh.engine)
  | 4 (* Spawn *) -> on_spawn t sh p (ev_b packed)
  | 5 (* Steal_tick *) -> (
      match t.cfg.policy with
      | Policy.Repeated { retry_rate; _ } ->
          on_steal_tick t sh p (ev_b packed) ~retry_rate
      | _ -> ())
  | 6 (* Rebalance_tick *) -> (
      match t.cfg.policy with
      | Policy.Rebalance { rate } ->
          if ev_b packed = t.timer_gen.{p} then do_rebalance t sh p ~rate
      | _ -> ())
  | _ -> assert false

(* ---- lifecycle ---- *)

(* [who] names the entry point in error messages. A shard can read
   remote state only through messages, so several shards take only the
   single-probe tail-steal policies, with no load-probing arrivals. *)
let validate ~who ~shards ~latency cfg =
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  Policy.validate cfg.policy;
  if cfg.n < 1 then fail "need at least 1 processor";
  if cfg.n > max_procs then fail "more than 2^24 processors";
  (match cfg.policy with
  | Policy.No_stealing -> ()
  | _ -> if cfg.n < 2 then fail "stealing needs at least 2 processors");
  if cfg.arrival_rate < 0.0 then fail "negative arrival rate";
  if cfg.spawn_rate < 0.0 then fail "negative spawn rate";
  if cfg.initial_load < 0 then fail "negative initial load";
  if cfg.placement < 1 then fail "placement must be at least 1";
  if cfg.batch_mean < 1.0 then fail "batch_mean must be at least 1";
  (match cfg.speeds with
  | Some sp ->
      if Array.length sp <> cfg.n then fail "speeds array has wrong length";
      Array.iter (fun s -> if s <= 0.0 then fail "speeds must be positive") sp
  | None -> ());
  if shards < 1 then fail "need at least 1 shard";
  if shards > cfg.n then fail "more shards than processors";
  if shards > 1 then begin
    (match cfg.policy with
    | Policy.No_stealing -> ()
    | Policy.On_empty { choices; _ } | Policy.Steal_half { choices; _ } ->
        if choices <> 1 then
          fail
            "multi-choice probing reads remote loads; only choices = 1 is \
             shardable"
    | Policy.Preemptive _ | Policy.Repeated _ | Policy.Transfer _
    | Policy.Rebalance _ | Policy.Ring_steal _ ->
        fail
          "unsupported policy (no-stealing, on-empty and steal-half with \
           choices = 1 shard)");
    if not (Float.equal cfg.spawn_rate 0.0) then
      fail "spawn_rate must be 0 (spawn timers probe load)";
    if cfg.placement <> 1 then fail "placement probing reads remote loads";
    if not (Float.equal cfg.batch_mean 1.0) then fail "batch_mean must be 1";
    if not (latency > 0.0) then fail "cross-shard stealing needs latency > 0"
  end

let make ~who ?engine ~rng ~shards ~latency cfg =
  validate ~who ~shards ~latency cfg;
  let n = cfg.n in
  let base = n / shards and rem = n mod shards in
  let cut = rem * (base + 1) in
  let bound sid =
    if sid <= rem then sid * (base + 1) else cut + ((sid - rem) * base)
  in
  let fl len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  let zeros kind len =
    let lane = Bigarray.Array1.create kind Bigarray.c_layout len in
    Bigarray.Array1.fill lane 0;
    lane
  in
  let in_service = fl n and load_since = fl n in
  Bigarray.Array1.fill in_service nan;
  Bigarray.Array1.fill load_since 0.0;
  let speeds =
    match cfg.speeds with
    | None -> None
    | Some sp ->
        let lane = fl n in
        Array.iteri (fun i v -> lane.{i} <- v) sp;
        Some lane
  in
  let used b = if b then n else 0 in
  let is_transfer, has_timer =
    match cfg.policy with
    | Policy.Transfer _ -> (true, false)
    | Policy.Repeated _ | Policy.Rebalance _ -> (false, true)
    | _ -> (false, false)
  in
  (* per-shard RNG streams split from the root in shard order; a single
     shard uses the caller's generator directly *)
  let streams = Array.make shards rng in
  if shards > 1 then
    for i = 0 to shards - 1 do
      streams.(i) <- Rng.split rng
    done;
  let mailboxes =
    Array.init shards (fun _ -> Array.init shards (fun _ -> Mailbox.create ()))
  in
  let engine_for shard_n =
    (* reuse a caller-provided engine (cleared, so the run is
       bit-identical to a fresh one) when its future-event set matches
       the requested one; otherwise build a fresh engine *)
    match engine with
    | Some e
      when match (Desim.Packed_engine.scheduler e, cfg.scheduler) with
           | Heap, Heap | Calendar, Calendar -> true
           | (Heap | Calendar), _ -> false ->
        Desim.Packed_engine.clear e;
        e
    | Some _ | None ->
        Desim.Packed_engine.create ~capacity:(4 * shard_n)
          ~scheduler:cfg.scheduler ()
  in
  let shards =
    Array.init shards (fun sid ->
        let lo = bound sid and hi = bound (sid + 1) in
        {
          sid;
          lo;
          hi;
          rng = streams.(sid);
          engine = engine_for (hi - lo);
          (* room for the seeded backlog, so startup never grows a ring *)
          queues =
            Task_queues.create ~procs:(hi - lo)
              ~capacity:(max 4 (cfg.initial_load + 2));
          sojourn = Stats.create ();
          p50 = P2_quantile.create ~p:0.50;
          p95 = P2_quantile.create ~p:0.95;
          p99 = P2_quantile.create ~p:0.99;
          occupancy = Histogram.Counts.create ();
          occ = Array.make 64 0;
          f = { transit = 0.0; last_completion = nan };
          transit_avg = Timeavg.create ();
          transit_window_open = false;
          in_transit = 0;
          total_tasks = 0;
          steal_attempts = 0;
          steal_successes = 0;
          tasks_stolen = 0;
          rebalances = 0;
          scratch = Array.make 8 0.0;
          outboxes = mailboxes.(sid);
          handler = ignore;
        })
  in
  let t =
    {
      cfg;
      latency;
      base;
      rem;
      cut;
      in_service;
      load_since;
      busy = zeros Bigarray.int8_unsigned n;
      speeds;
      waiting = zeros Bigarray.int8_unsigned (used is_transfer);
      spawn_gen = zeros Bigarray.int (used (cfg.spawn_rate > 0.0));
      timer_gen = zeros Bigarray.int (used has_timer);
      shards;
      mailboxes;
      warmup = 0.0;
      horizon = infinity;
    }
  in
  Array.iter
    (fun sh ->
      sh.handler <- (fun packed -> handle t sh packed);
      (* the RNG draw order of a run starts here: the seeded backlog,
         then the first external arrivals, then the rebalance timers,
         each over the shard's processors in id order *)
      for p = sh.lo to sh.hi - 1 do
        for _ = 1 to cfg.initial_load do
          add_task t sh p 0.0
        done
      done;
      if cfg.arrival_rate > 0.0 then
        for p = sh.lo to sh.hi - 1 do
          Desim.Packed_engine.schedule_after sh.engine
            ~delay:(exp_delay sh cfg.arrival_rate)
            ~payload:(ev ~tag:tag_arrival ~a:p ~b:0)
            ~aux:0.0
        done;
      match cfg.policy with
      | Policy.Rebalance { rate } ->
          for p = sh.lo to sh.hi - 1 do
            arm_rebalance t sh p ~rate
          done
      | _ -> ())
    shards;
  t

let create ?engine ~rng cfg =
  make ~who:"Cluster.create" ?engine ~rng ~shards:1 ~latency:0.0 cfg

let create_sharded ~rng ~shards ~latency cfg =
  make ~who:"Shard.create" ~rng ~shards ~latency cfg

(* ---- result assembly ---- *)

let flush_occupancy t sh =
  for p = sh.lo to sh.hi - 1 do
    note_load t sh p ~load:(load t sh p)
  done

(* Count-weighted combination of per-shard P² estimates. P² markers
   cannot be merged exactly; the weighted mean is exact whenever one
   shard holds all the samples (in particular at a single shard) and a
   close, deterministic estimate otherwise. *)
let merged_quantile shards get =
  let tot = ref 0 and acc = ref 0.0 and nonzero = ref 0 and last = ref nan in
  Array.iter
    (fun sh ->
      let est = get sh in
      let count = P2_quantile.count est in
      if count > 0 then begin
        incr nonzero;
        let q = P2_quantile.quantile est in
        last := q;
        tot := !tot + count;
        acc := !acc +. (float_of_int count *. q)
      end)
    shards;
  if !nonzero = 0 then nan
  else if !nonzero = 1 then !last
  else !acc /. float_of_int !tot

let collect t ~duration ~makespan =
  let shards = t.shards in
  let sojourn = ref shards.(0).sojourn in
  let occupancy = ref shards.(0).occupancy in
  for i = 1 to Array.length shards - 1 do
    sojourn := Stats.merge !sojourn shards.(i).sojourn;
    occupancy := Histogram.Counts.merge !occupancy shards.(i).occupancy
  done;
  let sojourn = !sojourn and occupancy = !occupancy in
  let queue_avg =
    let total = Histogram.Counts.total_weight occupancy in
    if total <= 0.0 then nan
    else begin
      let acc = ref 0.0 in
      for i = 1 to Histogram.Counts.max_index occupancy do
        acc :=
          !acc +. (float_of_int i *. Histogram.Counts.probability occupancy i)
      done;
      !acc
    end
  in
  let n = float_of_int t.cfg.n in
  let transit_per_proc =
    if Array.length shards = 1 then begin
      (* Transfer's in-flight count, time-averaged (0 for other policies) *)
      let sh = shards.(0) in
      let avg = Timeavg.average sh.transit_avg ~upto:(now sh) in
      if Float.is_nan avg then 0.0 else avg /. n
    end
    else
      (* cross-shard steals' in-flight task-time over the window *)
      Array.fold_left (fun acc sh -> acc +. sh.f.transit) 0.0 shards
      /. duration /. n
  in
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 shards in
  {
    duration;
    completed = Stats.count sojourn;
    mean_sojourn = Stats.mean sojourn;
    sojourn_ci95 = Stats.ci95_halfwidth sojourn;
    sojourn_p50 = merged_quantile shards (fun sh -> sh.p50);
    sojourn_p95 = merged_quantile shards (fun sh -> sh.p95);
    sojourn_p99 = merged_quantile shards (fun sh -> sh.p99);
    mean_load = queue_avg +. transit_per_proc;
    tail = (fun i -> Histogram.Counts.tail occupancy i);
    steal_attempts = sum (fun sh -> sh.steal_attempts);
    steal_successes = sum (fun sh -> sh.steal_successes);
    tasks_stolen = sum (fun sh -> sh.tasks_stolen);
    rebalances = sum (fun sh -> sh.rebalances);
    makespan;
  }

(* ---- runs ---- *)

(* The entries that step one engine ({!advance}, {!run_observed},
   {!run_static}) take only an instance with one shard, as {!create}
   builds. *)
let only_shard ~who t =
  if Array.length t.shards <> 1 then
    invalid_arg (who ^ ": needs a single-shard instance");
  t.shards.(0)

let advance t ~until =
  let sh = only_shard ~who:"Cluster.advance" t in
  Desim.Packed_engine.run ~until sh.engine ~handler:sh.handler

let start_window ~who t ~horizon ~warmup =
  if warmup < 0.0 || warmup >= horizon then
    invalid_arg (who ^ ": need 0 <= warmup < horizon");
  t.warmup <- warmup;
  t.horizon <- horizon;
  Array.iter
    (fun sh -> sh.transit_window_open <- Float.equal warmup 0.0)
    t.shards

(* ---- the conservative round loop ----

   Invariant: every message generated while some shard processes events
   in a window [clock, W) is stamped at least T + L, where T is the
   global minimum next-event time computed after draining all inboxes
   and L the transfer latency — each message is sent exactly L (steal
   requests) past its generating event, which itself is at or past T.
   With W = T + L, no in-window event can be affected by any message
   still in flight, so shards advance their windows independently; the
   two pool barriers per round (drain+min, advance) are also the
   happens-before edges that hand mailboxes between shards. All drain
   and tie-break orders are fixed by shard index and push order, so the
   trajectory is bit-identical at any fixed shard count, whatever the
   pool size. *)

let drain_inboxes t sh =
  let engine = sh.engine in
  for src = 0 to Array.length t.shards - 1 do
    Mailbox.drain t.mailboxes.(src).(sh.sid) ~f:(fun ~time ~payload ~aux ->
        Desim.Packed_engine.schedule engine ~at:time ~payload ~aux)
  done

let run_rounds ~who ?pool t ~horizon ~warmup =
  start_window ~who t ~horizon ~warmup;
  let s = Array.length t.shards in
  if s = 1 then begin
    (* no peers, no messages: one inclusive advance *)
    advance t ~until:horizon;
    flush_occupancy t t.shards.(0)
  end
  else begin
    let pool =
      match pool with Some p -> p | None -> Parallel.Pool.default ()
    in
    let continue = ref true in
    while !continue do
      let mins =
        Parallel.Pool.map_int pool
          (fun i ->
            let sh = t.shards.(i) in
            drain_inboxes t sh;
            Desim.Packed_engine.next_time sh.engine)
          s
      in
      let tmin =
        Array.fold_left (fun a b -> if b < a then b else a) infinity mins
      in
      let w = tmin +. t.latency in
      if w > horizon then begin
        (* final round, inclusive of the horizon: anything generated
           here is stamped past T + L > horizon, so undrained messages
           are exactly the tasks still in flight at the horizon *)
        ignore
          (Parallel.Pool.map_int pool
             (fun i ->
               let sh = t.shards.(i) in
               Desim.Packed_engine.run ~until:horizon sh.engine
                 ~handler:sh.handler;
               flush_occupancy t sh)
             s);
        continue := false
      end
      else
        ignore
          (Parallel.Pool.map_int pool
             (fun i ->
               let sh = t.shards.(i) in
               Desim.Packed_engine.advance_until ~upto:w sh.engine
                 ~handler:sh.handler)
             s)
    done
  end;
  collect t ~duration:(horizon -. warmup) ~makespan:nan

let run t ~horizon ~warmup = run_rounds ~who:"Cluster.run" t ~horizon ~warmup

let run_sharded ?pool t ~horizon ~warmup =
  run_rounds ~who:"Shard.run" ?pool t ~horizon ~warmup

let run_observed t ~horizon ~warmup ~sample_every ~observe =
  let sh = only_shard ~who:"Cluster.run_observed" t in
  start_window ~who:"Cluster.run_observed" t ~horizon ~warmup;
  if sample_every <= 0.0 then
    invalid_arg "Cluster.run_observed: sample_every must be positive";
  let n = float_of_int t.cfg.n in
  let tail i =
    if i <= 0 then 1.0
    else if i >= Array.length sh.occ then 0.0
    else float_of_int sh.occ.(i) /. n
  in
  observe 0.0 tail;
  (* sample times come from an integer tick counter: [k *. sample_every]
     does not accumulate rounding error the way repeated [+.] does over
     long horizons, so no epsilon slack is needed on the loop bound *)
  let k = ref 1 in
  let next = ref sample_every in
  while !next <= horizon do
    advance t ~until:!next;
    observe !next tail;
    incr k;
    next := float_of_int !k *. sample_every
  done;
  advance t ~until:horizon;
  flush_occupancy t sh;
  collect t ~duration:(horizon -. warmup) ~makespan:nan

let run_static ?(max_events = 200_000_000) t =
  if t.cfg.arrival_rate > 0.0 then
    invalid_arg "Cluster.run_static: external arrivals never stop";
  let sh = only_shard ~who:"Cluster.run_static" t in
  t.warmup <- 0.0;
  let events = ref 0 in
  let continue = ref (sh.total_tasks > 0) in
  while !continue do
    if Desim.Packed_engine.next sh.engine then begin
      incr events;
      if !events > max_events then
        failwith "Cluster.run_static: event budget exceeded";
      handle t sh (Desim.Packed_engine.payload sh.engine);
      if sh.total_tasks = 0 then continue := false
    end
    else continue := false
  done;
  flush_occupancy t sh;
  let makespan =
    let last = sh.f.last_completion in
    if Float.is_nan last then 0.0 else last
  in
  collect t ~duration:makespan ~makespan
