open Prob

type fidelity = { runs : int; horizon : float; warmup : float }

let paper_fidelity = { runs = 10; horizon = 100_000.0; warmup = 10_000.0 }
let default_fidelity = { runs = 3; horizon = 20_000.0; warmup = 2_000.0 }
let quick_fidelity = { runs = 2; horizon = 4_000.0; warmup = 500.0 }

type summary = {
  runs : int;
  mean_sojourn : float;
  sojourn_ci95 : float;
  mean_load : float;
  steal_success_rate : float;
  per_run : Cluster.result array;
}

let summarize (results : Cluster.result array) =
  let acc = Stats.create () in
  let load_acc = Stats.create () in
  let attempts = ref 0 and successes = ref 0 in
  Array.iter
    (fun (r : Cluster.result) ->
      if not (Float.is_nan r.Cluster.mean_sojourn) then
        Stats.add acc r.Cluster.mean_sojourn;
      if not (Float.is_nan r.Cluster.mean_load) then
        Stats.add load_acc r.Cluster.mean_load;
      attempts := !attempts + r.Cluster.steal_attempts;
      successes := !successes + r.Cluster.steal_successes)
    results;
  {
    runs = Array.length results;
    mean_sojourn = Stats.mean acc;
    sojourn_ci95 = Stats.ci95_halfwidth acc;
    mean_load = Stats.mean load_acc;
    steal_success_rate =
      (if !attempts = 0 then nan
       else float_of_int !successes /. float_of_int !attempts);
    per_run = results;
  }

(* The root is split [runs] times, in replica order, on the calling
   domain, BEFORE any task is dispatched: replica i consumes stream i
   whether the map runs serially or on any number of domains, so the
   summary is bit-for-bit identical to the historical serial path. *)
let split_streams root runs =
  let streams = Array.make runs root in
  for i = 0 to runs - 1 do
    streams.(i) <- Rng.split root
  done;
  streams

let resolve_pool = function
  | Some pool -> pool
  | None -> Parallel.Pool.default ()

(* Each domain keeps one engine and reuses it across the replicas it
   executes: the event lanes stay warm instead of being re-allocated
   per run. Safe because pool tasks run to completion on their domain
   (the engine is only live inside one replica's lambda at a time), and
   deterministic because [Cluster.create ?engine] clears the engine to
   its freshly created state — so results cannot depend on how replicas
   were distributed over domains. An engine built for the wrong
   scheduler is simply replaced. *)
let engine_slot : Desim.Packed_engine.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let borrowed_engine (config : Cluster.config) =
  let slot = Domain.DLS.get engine_slot in
  (match !slot with
  | Some e
    when match (Desim.Packed_engine.scheduler e, config.Cluster.scheduler) with
         | Cluster.Heap, Cluster.Heap | Cluster.Calendar, Cluster.Calendar ->
             true
         | (Cluster.Heap | Cluster.Calendar), _ -> false ->
      ()
  | Some _ | None ->
      slot :=
        Some
          (Desim.Packed_engine.create
             ~capacity:(4 * config.Cluster.n)
             ~scheduler:config.Cluster.scheduler ()));
  match !slot with Some e -> e | None -> assert false

let replicate_with ?pool ~seed ~runs run_one =
  if runs < 1 then invalid_arg "Runner: need runs >= 1";
  summarize
    (Parallel.Pool.map_array (resolve_pool pool) run_one
       (split_streams (Rng.create ~seed) runs))

let replicate ?pool ~seed ~(fidelity : fidelity) config =
  replicate_with ?pool ~seed ~runs:fidelity.runs (fun rng ->
      let sim = Cluster.create ~engine:(borrowed_engine config) ~rng config in
      Cluster.run sim ~horizon:fidelity.horizon ~warmup:fidelity.warmup)

let replicate_static ?pool ~seed ~runs config =
  replicate_with ?pool ~seed ~runs (fun rng ->
      Cluster.run_static
        (Cluster.create ~engine:(borrowed_engine config) ~rng config))
