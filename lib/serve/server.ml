(* The prediction service's perf core: answer "fixed point of family F
   at λ" queries through a three-tier path — exact cache hit, monotone
   sub-grid interpolation between cached neighbours (guarded by a real
   residual check), warm-started solve from the nearest cached λ — with
   a cold solve as the floor. Batches fan per-family groups over the
   domain pool; within a family the distinct miss λs form one lockstep
   fixed_point_batch solve (every derivative sweep shared across the
   group's columns), across families there is no data dependency, so
   batch results are bit-identical at any pool size. *)

open Meanfield

type source = Hit | Interpolated | Warm | Cold

let source_name = function
  | Hit -> "hit"
  | Interpolated -> "interpolated"
  | Warm -> "warm"
  | Cold -> "cold"

type config = {
  shards : int;
  depth : int;
  tol : float;
  interp_gap : float;
  interp_min_points : int;
  guard_factor : float;
  warm_basin : float;
}

let default_config =
  {
    shards = 16;
    depth = Families.default_depth;
    tol = 1e-11;
    interp_gap = 0.03;
    interp_min_points = 4;
    guard_factor = 1e4;
    warm_basin = 1e-2;
  }

type answer = {
  family : Families.t;
  lambda : float;
  state : Numerics.Vec.t;
  residual : float;
  evals : int;
  source : source;
  mean_tasks : float;
  mean_time : float;
}

(* Served-query counters; like the cache's shard counters these mutable
   fields are only touched under [lock]. *)
type counters = {
  lock : Mutex.t;
  mutable hit : int;
  mutable interpolated : int;
  mutable warm : int;
  mutable cold : int;
  mutable miss_evals : int;
  mutable batched_solves : int;
  mutable batched_columns : int;
}

type stats = {
  cache : Cache.stats;
  hit : int;
  interpolated : int;
  warm : int;
  cold : int;
  miss_evals : int;
  batched_solves : int;
  batched_columns : int;
  probe_evals : int;
}

type t = { cache : Cache.t; counters : counters }

let create () =
  {
    cache = Cache.create ~shards:default_config.shards ();
    counters =
      {
        lock = Mutex.create ();
        hit = 0;
        interpolated = 0;
        warm = 0;
        cold = 0;
        miss_evals = 0;
        batched_solves = 0;
        batched_columns = 0;
      };
  }

let config _ = default_config

let bump t source evals =
  let c = t.counters in
  Mutex.protect c.lock (fun () ->
      (match source with
      | Hit -> c.hit <- c.hit + 1
      | Interpolated -> c.interpolated <- c.interpolated + 1
      | Warm -> c.warm <- c.warm + 1
      | Cold -> c.cold <- c.cold + 1);
      match source with
      | Warm | Cold -> c.miss_evals <- c.miss_evals + evals
      | Hit | Interpolated -> ())

let bump_batched t columns =
  let c = t.counters in
  Mutex.protect c.lock (fun () ->
      c.batched_solves <- c.batched_solves + 1;
      c.batched_columns <- c.batched_columns + columns)

(* Sub-grid interpolation: when enough of the family's curve is already
   cached and the query λ falls inside a narrow bracketed gap, evaluate
   the monotone PCHIP of the cached states at λ and accept it only if a
   real derivative evaluation certifies the residual within
   [tol · guard_factor] and the model's own domain check passes. The
   guard is what keeps this an acceleration rather than an
   approximation with unbounded error: a failed guard just falls
   through to a warm-started solve. *)
let try_interp model chain lambda =
  let arr =
    Array.of_list
      (List.filter
         (fun e -> Numerics.Vec.dim e.Cache.state = model.Model.dim)
         chain)
  in
  let n = Array.length arr in
  if n < default_config.interp_min_points then None
  else begin
    let below = ref (-1) and above = ref (-1) in
    Array.iteri
      (fun i e ->
        if e.Cache.lambda < lambda then below := i
        else if !above < 0 && e.Cache.lambda > lambda then above := i)
      arr;
    if
      !below >= 0
      && !above >= 0
      && arr.(!above).Cache.lambda -. arr.(!below).Cache.lambda
         <= default_config.interp_gap
    then begin
      let xs = Numerics.Vec.init n (fun i -> arr.(i).Cache.lambda) in
      let cols = Array.map (fun e -> e.Cache.state) arr in
      let state = Numerics.Interp.pchip_cols ~xs ~cols lambda in
      let residual = Drive.residual model state in
      if
        residual <= default_config.tol *. default_config.guard_factor
        && model.Model.validate state
      then Some (state, residual)
      else None
    end
    else None
  end

(* Which start (and hand-over residual) a miss solve should use: the
   nearest cached λ-neighbour only wins when it is actually closer to
   the fixed point than the model's own default start — mm1's
   [initial_warm] {e is} its closed-form fixed point, and relaxing away
   from a neighbour state there costs orders of magnitude more than the
   two residual checks that prove the default is already converged. The
   two extra derivative evaluations are charged to the answer. A
   neighbour start is already close to the target fixed point, so let
   the Newton corrector engage straight away (its fallback to
   relaxation bounds the downside); cold solves keep the solver's
   conservative default hand-over residual. *)
let pick_start model chain lambda =
  let candidates = List.map (fun e -> (e.Cache.lambda, e.Cache.state)) chain in
  match Continuation.nearest_start ~candidates ~dim:model.Model.dim lambda with
  | `Warm -> (`Warm, Drive.default_basin, Cold, 0)
  | `State s ->
      let r_near = Drive.residual model s in
      let r_default = Drive.residual model (model.Model.initial_warm ()) in
      if r_default <= r_near then (`Warm, Drive.default_basin, Cold, 2)
      else (`State s, default_config.warm_basin, Warm, 2)

let finish_answer t (fam : Families.t) lambda model source fp extra_evals =
  let evals = fp.Drive.evals + extra_evals in
  let mean_tasks = Metrics.mean_tasks model fp.Drive.state in
  let mean_time = Metrics.mean_time model fp.Drive.state in
  Cache.insert t.cache ~family:fam.Families.family
    {
      Cache.lambda;
      state = fp.Drive.state;
      residual = fp.Drive.residual;
      evals;
      mean_tasks;
      mean_time;
    };
  bump t source evals;
  {
    family = fam;
    lambda;
    state = fp.Drive.state;
    residual = fp.Drive.residual;
    evals;
    source;
    mean_tasks;
    mean_time;
  }

(* The scalar miss path: one warm- or cold-started hybrid solve. The
   chain snapshot comes from the counter-neutral [Cache.chain] — the
   [Cache.find] in [try_fast] already paid this query's hit/miss
   accounting. *)
let solve_scalar_miss t (fam : Families.t) lambda =
  let model = fam.Families.build lambda in
  let chain = Cache.chain t.cache ~family:fam.Families.family in
  let start, basin, source, extra_evals = pick_start model chain lambda in
  let fp = Drive.fixed_point ~tol:default_config.tol ~basin ~start model in
  finish_answer t fam lambda model source fp extra_evals

let try_fast t (fam : Families.t) lambda =
  let lambda = Key.canon_float lambda in
  match Cache.find t.cache ~family:fam.Families.family lambda with
  | Cache.Hit e ->
      bump t Hit 0;
      Some
        {
          family = fam;
          lambda;
          state = e.Cache.state;
          residual = e.Cache.residual;
          evals = 0;
          source = Hit;
          mean_tasks = e.Cache.mean_tasks;
          mean_time = e.Cache.mean_time;
        }
  | Cache.Miss chain -> (
      let model = fam.Families.build lambda in
      match try_interp model chain lambda with
      | Some (state, residual) ->
          let mean_tasks = Metrics.mean_tasks model state in
          let mean_time = Metrics.mean_time model state in
          Cache.insert t.cache ~family:fam.Families.family
            { Cache.lambda; state; residual; evals = 1; mean_tasks; mean_time };
          bump t Interpolated 1;
          Some
            {
              family = fam;
              lambda;
              state;
              residual;
              evals = 1;
              source = Interpolated;
              mean_tasks;
              mean_time;
            }
      | None -> None)

let answer t (fam : Families.t) lambda =
  let lambda = Key.canon_float lambda in
  match try_fast t fam lambda with
  | Some a -> a
  | None -> solve_scalar_miss t fam lambda

let rec solve_group t (fam : Families.t) lambdas =
  match lambdas with
  | [] -> []
  | [ lambda ] -> [ solve_scalar_miss t fam lambda ]
  | _ ->
      (* K misses of one family become one lockstep solve: the family's
         batch builder lays the columns over a shared SoA matrix (with
         the hand-batched derivative kernel when the family has one),
         each column gets its own warm/cold start decision against one
         chain snapshot, and every derivative sweep is shared by all
         still-active columns. *)
      let arr = Array.of_list lambdas in
      let models = fam.Families.build_batch arr in
      let chain = Cache.chain t.cache ~family:fam.Families.family in
      let k = Array.length arr in
      let starts =
        Array.make k (`Warm : [ `Empty | `Warm | `State of Numerics.Vec.t ])
      in
      let basins = Array.make k Drive.default_basin in
      let sources = Array.make k Cold in
      let extras = Array.make k 0 in
      Array.iteri
        (fun i lambda ->
          let start, basin, source, extra =
            pick_start models.(i) chain lambda
          in
          starts.(i) <-
            (start :> [ `Empty | `Warm | `State of Numerics.Vec.t ]);
          basins.(i) <- basin;
          sources.(i) <- source;
          extras.(i) <- extra)
        arr;
      if Array.for_all (fun s -> s = Cold) sources then begin
        (* A fully cold miss train — a burst scanning a region the
           cache has never seen. Lockstep-solving K cold columns pays
           K full solves' worth of sweeps, where a sequential replay
           would cold-solve only the first and warm-chain the rest.
           Recover that chaining: scalar-solve one anchor (the median
           λ, closest to everyone), insert it, and re-group the rest —
           whose re-picked starts now find the anchor in the chain. *)
        let mid = k / 2 in
        let anchor = solve_scalar_miss t fam arr.(mid) in
        let rest =
          List.filteri (fun i _ -> i <> mid) (Array.to_list arr)
        in
        let rest_answers = solve_group t fam rest in
        let before = List.filteri (fun i _ -> i < mid) rest_answers in
        let after = List.filteri (fun i _ -> i >= mid) rest_answers in
        before @ (anchor :: after)
      end
      else begin
        let fps, _stats =
          Drive.fixed_point_batch ~tol:default_config.tol ~starts ~basins models
        in
        bump_batched t k;
        Array.to_list
          (Array.mapi
             (fun i fp ->
               finish_answer t fam arr.(i) models.(i) sources.(i) fp
                 extras.(i))
             fps)
      end

let answer_batch ?pool t queries =
  let pool =
    match pool with Some p -> p | None -> Parallel.Pool.default ()
  in
  let tagged =
    List.mapi (fun i (fam, l) -> (i, fam, Key.canon_float l)) queries
  in
  (* Distinct families in first-appearance order (keeps Pool.map input,
     and hence scheduling, independent of hash-table iteration). *)
  let seen = Hashtbl.create 16 in
  let fams =
    List.filter_map
      (fun (_, fam, _) ->
        let k = fam.Families.family in
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some k
        end)
      tagged
  in
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun ((_, fam, _) as q) ->
      let k = fam.Families.family in
      let prev = Option.value ~default:[] (Hashtbl.find_opt buckets k) in
      Hashtbl.replace buckets k (q :: prev))
    tagged;
  let groups = List.map (fun k -> List.rev (Hashtbl.find buckets k)) fams in
  let solved =
    Parallel.Pool.map pool
      (fun group ->
        let fam =
          match group with (_, fam, _) :: _ -> fam | [] -> assert false
        in
        (* Single-flight within the request: each distinct λ is looked
           up (and, on a miss, solved) exactly once; duplicates share
           the first occurrence's answer and count as hits, which is
           what they were when the old per-query chain re-found the
           just-inserted entry. Misses then form one ascending-λ
           lockstep solve instead of a sequential warm-start chain. *)
        let uniq =
          List.sort_uniq Float.compare (List.map (fun (_, _, l) -> l) group)
        in
        let answered = Hashtbl.create 16 in
        let misses =
          List.filter
            (fun l ->
              match try_fast t fam l with
              | Some a ->
                  Hashtbl.replace answered l a;
                  false
              | None -> true)
            uniq
        in
        List.iter2
          (fun l a -> Hashtbl.replace answered l a)
          misses (solve_group t fam misses);
        let seen_lambda = Hashtbl.create 16 in
        List.map
          (fun (i, _, l) ->
            if Hashtbl.mem seen_lambda l then bump t Hit 0
            else Hashtbl.add seen_lambda l ();
            (i, Hashtbl.find answered l))
          group)
      groups
  in
  List.concat solved
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map snd

let stats t : stats =
  let c = t.counters in
  let hit, interpolated, warm, cold, miss_evals, batched_solves, batched_columns
      =
    Mutex.protect c.lock (fun () ->
        ( c.hit,
          c.interpolated,
          c.warm,
          c.cold,
          c.miss_evals,
          c.batched_solves,
          c.batched_columns ))
  in
  {
    cache = Cache.stats t.cache;
    hit;
    interpolated;
    warm;
    cold;
    miss_evals;
    batched_solves;
    batched_columns;
    probe_evals = Drive.probe_evals ();
  }
