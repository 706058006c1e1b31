(* Tests for the finite-n work-stealing simulator: the task queues, policy
   validation, queueing-theory ground truths (M/M/1, M/D/1), Little's law,
   determinism, and agreement with the mean-field fixed points. *)

let check_close eps = Alcotest.(check (float eps))

(* ---------- Task_queues ---------- *)

let test_queues_fifo () =
  (* capacity 2, so the queue grows twice on the way to 10 *)
  let q = Wsim.Task_queues.create ~procs:1 ~capacity:2 in
  for i = 1 to 10 do
    Wsim.Task_queues.push_back q 0 (float_of_int i)
  done;
  Alcotest.(check int) "length" 10 (Wsim.Task_queues.length q 0);
  for i = 1 to 10 do
    check_close 1e-12 "fifo" (float_of_int i) (Wsim.Task_queues.pop_front q 0)
  done;
  Alcotest.(check int) "empty" 0 (Wsim.Task_queues.length q 0)

let test_queues_steal_from_back () =
  let q = Wsim.Task_queues.create ~procs:2 ~capacity:4 in
  List.iter (Wsim.Task_queues.push_back q 1) [ 1.0; 2.0; 3.0 ];
  check_close 1e-12 "back" 3.0 (Wsim.Task_queues.pop_back q 1);
  check_close 1e-12 "front" 1.0 (Wsim.Task_queues.pop_front q 1);
  check_close 1e-12 "last" 2.0 (Wsim.Task_queues.pop_back q 1);
  Alcotest.(check int) "neighbour untouched" 0 (Wsim.Task_queues.length q 0)

let test_queues_wraparound () =
  let q = Wsim.Task_queues.create ~procs:1 ~capacity:4 in
  (* push/pop around the ring boundary several times *)
  for round = 0 to 20 do
    Wsim.Task_queues.push_back q 0 (float_of_int round);
    Wsim.Task_queues.push_back q 0 (float_of_int (round + 100));
    check_close 1e-12 "first out" (float_of_int round)
      (Wsim.Task_queues.pop_front q 0);
    check_close 1e-12 "second out" (float_of_int (round + 100))
      (Wsim.Task_queues.pop_front q 0)
  done

let qcheck_queues_model =
  (* three queues sharing one arena against two-list functional deques:
     interleaved growth moves segments while the others hold stamps.
     Pops are unchecked, so a pop on an empty queue checks the length
     instead. *)
  QCheck.Test.make ~count:300 ~name:"queues match reference model"
    QCheck.(list (pair (int_range 0 3) (int_range 0 2)))
    (fun ops ->
      let q = Wsim.Task_queues.create ~procs:3 ~capacity:1 in
      let reference = Array.make 3 [] in
      let counter = ref 0.0 in
      List.for_all
        (fun (op, i) ->
          match (op, reference.(i)) with
          | 0, r ->
              counter := !counter +. 1.0;
              Wsim.Task_queues.push_back q i !counter;
              reference.(i) <- r @ [ !counter ];
              true
          | 1, x :: rest ->
              reference.(i) <- rest;
              Float.equal (Wsim.Task_queues.pop_front q i) x
          | 2, (_ :: _ as r) -> (
              match List.rev r with
              | x :: rest_rev ->
                  reference.(i) <- List.rev rest_rev;
                  Float.equal (Wsim.Task_queues.pop_back q i) x
              | [] -> false)
          | _, r -> Wsim.Task_queues.length q i = List.length r)
        ops)

(* ---------- Policy ---------- *)

let test_policy_validation () =
  let bad p msg = Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
      Wsim.Policy.validate p)
  in
  bad
    (Wsim.Policy.On_empty { threshold = 1; choices = 1; steal_count = 1 })
    "Policy.On_empty: threshold must be at least 2";
  bad
    (Wsim.Policy.On_empty { threshold = 3; choices = 0; steal_count = 1 })
    "Policy.On_empty: choices must be at least 1";
  bad
    (Wsim.Policy.On_empty { threshold = 3; choices = 1; steal_count = 3 })
    "Policy.On_empty: steal_count must be below threshold";
  bad
    (Wsim.Policy.Preemptive { begin_at = 2; offset = 3 })
    "Policy.Preemptive: need offset >= begin_at + 2";
  bad
    (Wsim.Policy.Repeated { retry_rate = -1.0; threshold = 2 })
    "Policy.Repeated: retry_rate must be non-negative";
  bad
    (Wsim.Policy.Transfer { transfer_rate = 0.0; threshold = 2; stages = 1 })
    "Policy.Transfer: transfer_rate must be positive";
  Wsim.Policy.validate Wsim.Policy.simple

(* ---------- Cluster: ground truths ---------- *)

let run_once ?(n = 1) ?(seed = 1234) ?(horizon = 60_000.0) ?(warmup = 5_000.0)
    ?(policy = Wsim.Policy.No_stealing) ?(service = Prob.Dist.Exponential)
    ?(lambda = 0.8) () =
  let rng = Prob.Rng.create ~seed in
  let sim =
    Wsim.Cluster.create ~rng
      {
        Wsim.Cluster.default with
        n;
        arrival_rate = lambda;
        service;
        policy;
      }
  in
  Wsim.Cluster.run sim ~horizon ~warmup

let test_mm1_sojourn () =
  (* single queue, no stealing: E[T] = 1/(1-lambda) = 5 *)
  let r = run_once ~lambda:0.8 () in
  check_close 0.25 "M/M/1 E[T]" 5.0 r.Wsim.Cluster.mean_sojourn;
  check_close 0.25 "M/M/1 E[N]" 4.0 r.Wsim.Cluster.mean_load

let test_mm1_tail_geometric () =
  (* P(N >= i) = lambda^i for M/M/1 *)
  let r = run_once ~lambda:0.7 () in
  List.iter
    (fun i ->
      check_close 0.02
        (Printf.sprintf "s_%d" i)
        (0.7 ** float_of_int i)
        (r.Wsim.Cluster.tail i))
    [ 1; 2; 3; 4 ]

let test_md1_sojourn () =
  (* M/D/1: E[T] = 1 + rho/(2(1-rho)) = 1 + 0.8/0.4 = 3 at rho = 0.8.
     A single queue at rho = 0.8 mixes slowly, so give it a long run. *)
  let r =
    run_once ~lambda:0.8 ~service:Prob.Dist.Deterministic ~horizon:400_000.0
      ~warmup:20_000.0 ()
  in
  check_close 0.1 "M/D/1 E[T]" 3.0 r.Wsim.Cluster.mean_sojourn

let test_little_law () =
  (* E[N] = lambda * E[T] must hold for any policy *)
  List.iter
    (fun policy ->
      let r = run_once ~n:16 ~lambda:0.85 ~policy () in
      check_close 0.1
        (Format.asprintf "little for %a" Wsim.Policy.pp policy)
        (0.85 *. r.Wsim.Cluster.mean_sojourn)
        r.Wsim.Cluster.mean_load)
    [
      Wsim.Policy.No_stealing;
      Wsim.Policy.simple;
      Wsim.Policy.On_empty { threshold = 4; choices = 2; steal_count = 2 };
      Wsim.Policy.Preemptive { begin_at = 1; offset = 3 };
      Wsim.Policy.Repeated { retry_rate = 2.0; threshold = 2 };
      Wsim.Policy.Transfer { transfer_rate = 0.5; threshold = 3; stages = 1 };
      Wsim.Policy.Rebalance { rate = (fun _ -> 0.5) };
    ]

let test_determinism () =
  let run () =
    let r = run_once ~n:8 ~horizon:2_000.0 ~warmup:100.0
        ~policy:Wsim.Policy.simple ()
    in
    ( r.Wsim.Cluster.completed,
      r.Wsim.Cluster.mean_sojourn,
      r.Wsim.Cluster.steal_attempts,
      r.Wsim.Cluster.steal_successes )
  in
  let c1, m1, a1, s1 = run () in
  let c2, m2, a2, s2 = run () in
  Alcotest.(check int) "completed" c1 c2;
  check_close 0.0 "sojourn" m1 m2;
  Alcotest.(check int) "attempts" a1 a2;
  Alcotest.(check int) "successes" s1 s2

let test_seed_changes_result () =
  let r1 = run_once ~seed:1 ~n:8 ~horizon:2_000.0 ~warmup:100.0 () in
  let r2 = run_once ~seed:2 ~n:8 ~horizon:2_000.0 ~warmup:100.0 () in
  Alcotest.(check bool) "different seeds, different samples" true
    (r1.Wsim.Cluster.completed <> r2.Wsim.Cluster.completed
    || not (Float.equal r1.Wsim.Cluster.mean_sojourn r2.Wsim.Cluster.mean_sojourn))

let test_throughput () =
  (* completions per unit time per processor ~ lambda *)
  let horizon = 50_000.0 and warmup = 5_000.0 in
  let r = run_once ~n:16 ~lambda:0.6 ~policy:Wsim.Policy.simple ~horizon
      ~warmup ()
  in
  let rate =
    float_of_int r.Wsim.Cluster.completed /. (16.0 *. (horizon -. warmup))
  in
  check_close 0.01 "throughput" 0.6 rate

let test_steal_counters_consistent () =
  let r = run_once ~n:16 ~lambda:0.9 ~policy:Wsim.Policy.simple () in
  Alcotest.(check bool) "attempts >= successes" true
    (r.Wsim.Cluster.steal_attempts >= r.Wsim.Cluster.steal_successes);
  Alcotest.(check bool) "stolen = successes for k=1" true
    (r.Wsim.Cluster.tasks_stolen = r.Wsim.Cluster.steal_successes);
  Alcotest.(check bool) "some steals happened" true
    (r.Wsim.Cluster.steal_successes > 0)

let test_multisteal_counters () =
  let r =
    run_once ~n:16 ~lambda:0.9
      ~policy:
        (Wsim.Policy.On_empty { threshold = 6; choices = 1; steal_count = 3 })
      ()
  in
  Alcotest.(check bool) "stolen >= successes" true
    (r.Wsim.Cluster.tasks_stolen >= r.Wsim.Cluster.steal_successes);
  Alcotest.(check bool) "stolen <= 3x successes" true
    (r.Wsim.Cluster.tasks_stolen <= 3 * r.Wsim.Cluster.steal_successes)

let test_no_stealing_counters_zero () =
  let r = run_once ~n:4 ~lambda:0.8 () in
  Alcotest.(check int) "attempts" 0 r.Wsim.Cluster.steal_attempts;
  Alcotest.(check int) "rebalances" 0 r.Wsim.Cluster.rebalances

(* ---------- agreement with mean-field fixed points ---------- *)

let sim_mean ~policy ~lambda ?(service = Prob.Dist.Exponential) () =
  let summary =
    Wsim.Runner.replicate ~seed:777
      ~fidelity:{ Wsim.Runner.runs = 3; horizon = 30_000.0; warmup = 3_000.0 }
      {
        Wsim.Cluster.default with
        n = 128;
        arrival_rate = lambda;
        service;
        policy;
      }
  in
  summary.Wsim.Runner.mean_sojourn

let test_sim_matches_simple_model () =
  List.iter
    (fun lambda ->
      let sim = sim_mean ~policy:Wsim.Policy.simple ~lambda () in
      let model = Meanfield.Simple_ws.mean_time_exact ~lambda in
      Alcotest.(check bool)
        (Printf.sprintf "within 3%% at lambda=%g (sim %.3f model %.3f)"
           lambda sim model)
        true
        (Float.abs (sim -. model) /. model < 0.03))
    [ 0.5; 0.8; 0.9 ]

let test_sim_matches_threshold_model () =
  let lambda = 0.9 and threshold = 4 in
  let sim =
    sim_mean
      ~policy:
        (Wsim.Policy.On_empty { threshold; choices = 1; steal_count = 1 })
      ~lambda ()
  in
  let model = Meanfield.Threshold_ws.mean_time_exact ~lambda ~threshold in
  Alcotest.(check bool)
    (Printf.sprintf "within 3%% (sim %.3f model %.3f)" sim model)
    true
    (Float.abs (sim -. model) /. model < 0.03)

let test_sim_matches_erlang_model () =
  (* deterministic service vs the c = 20 stage estimate (Table 2) *)
  let lambda = 0.9 in
  let sim =
    sim_mean ~policy:Wsim.Policy.simple ~lambda
      ~service:Prob.Dist.Deterministic ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "near stage estimate (sim %.3f)" sim)
    true
    (Float.abs (sim -. 2.709) /. 2.709 < 0.04)

(* ---------- placement (supermarket) ---------- *)

let test_placement_matches_supermarket () =
  let lambda = 0.9 in
  let summary =
    Wsim.Runner.replicate ~seed:55
      ~fidelity:{ Wsim.Runner.runs = 3; horizon = 30_000.0; warmup = 3_000.0 }
      {
        Wsim.Cluster.default with
        n = 128;
        arrival_rate = lambda;
        policy = Wsim.Policy.No_stealing;
        placement = 2;
      }
  in
  let exact = Meanfield.Supermarket.mean_time_exact ~lambda ~choices:2 in
  Alcotest.(check bool)
    (Printf.sprintf "within 3%% (sim %.3f exact %.3f)"
       summary.Wsim.Runner.mean_sojourn exact)
    true
    (Float.abs (summary.Wsim.Runner.mean_sojourn -. exact) /. exact < 0.03)

let test_placement_one_unchanged () =
  (* placement = 1 must reproduce the dedicated-stream process exactly
     (no extra RNG draws) *)
  let run placement =
    let rng = Prob.Rng.create ~seed:8 in
    let sim =
      Wsim.Cluster.create ~rng
        { Wsim.Cluster.default with n = 8; arrival_rate = 0.7; placement }
    in
    (Wsim.Cluster.run sim ~horizon:2_000.0 ~warmup:200.0)
      .Wsim.Cluster.mean_sojourn
  in
  check_close 0.0 "identical streams" (run 1) (run 1);
  Alcotest.(check bool) "placement=2 changes the process" true
    (not (Float.equal (run 1) (run 2)))

let test_placement_validation () =
  Alcotest.check_raises "placement"
    (Invalid_argument "Cluster.create: placement must be at least 1")
    (fun () ->
      ignore
        (Wsim.Cluster.create
           ~rng:(Prob.Rng.create ~seed:0)
           { Wsim.Cluster.default with placement = 0 }))

(* ---------- steal-half and ring policies ---------- *)

let test_steal_half_sim_matches_model () =
  let lambda = 0.9 in
  let summary =
    Wsim.Runner.replicate ~seed:88
      ~fidelity:{ Wsim.Runner.runs = 3; horizon = 30_000.0; warmup = 3_000.0 }
      {
        Wsim.Cluster.default with
        n = 128;
        arrival_rate = lambda;
        policy = Wsim.Policy.Steal_half { threshold = 2; choices = 1 };
      }
  in
  let model = Meanfield.Steal_half_ws.model ~lambda () in
  let fp = Meanfield.Drive.fixed_point model in
  let predicted = Meanfield.Model.mean_time model fp.Meanfield.Drive.state in
  Alcotest.(check bool)
    (Printf.sprintf "within 3%% (sim %.3f model %.3f)"
       summary.Wsim.Runner.mean_sojourn predicted)
    true
    (Float.abs (summary.Wsim.Runner.mean_sojourn -. predicted) /. predicted
    < 0.03)

let test_ring_converges_to_uniform () =
  let run policy =
    (run_once ~n:64 ~lambda:0.9 ~policy ~horizon:30_000.0 ~warmup:3_000.0 ())
      .Wsim.Cluster.mean_sojourn
  in
  let tight = run (Wsim.Policy.Ring_steal { threshold = 2; radius = 1 }) in
  let wide = run (Wsim.Policy.Ring_steal { threshold = 2; radius = 31 }) in
  let uniform = run Wsim.Policy.simple in
  (* radius 31 out of 64 sees nearly everyone: close to uniform *)
  Alcotest.(check bool)
    (Printf.sprintf "wide ring ~ uniform (%.3f vs %.3f)" wide uniform)
    true
    (Float.abs (wide -. uniform) /. uniform < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "tight ring worse (%.3f vs %.3f)" tight uniform)
    true (tight > uniform)

let test_staged_transfer_sim_runs () =
  let r =
    run_once ~n:32 ~lambda:0.8
      ~policy:
        (Wsim.Policy.Transfer
           { transfer_rate = 0.25; threshold = 4; stages = 4 })
      ~horizon:20_000.0 ~warmup:2_000.0 ()
  in
  Alcotest.(check bool) "finite sojourn" true
    (Float.is_finite r.Wsim.Cluster.mean_sojourn);
  Alcotest.(check bool) "steals happened" true
    (r.Wsim.Cluster.steal_successes > 0)

(* ---------- batch arrivals ---------- *)

let test_batch_matches_model () =
  (* bursty arrivals at utilisation 0.8 vs the Batch_ws fixed point *)
  let event_rate = 0.4 and mean_batch = 2.0 in
  let summary =
    Wsim.Runner.replicate ~seed:66
      ~fidelity:{ Wsim.Runner.runs = 3; horizon = 30_000.0; warmup = 3_000.0 }
      {
        Wsim.Cluster.default with
        n = 128;
        arrival_rate = event_rate;
        batch_mean = mean_batch;
        policy = Wsim.Policy.simple;
      }
  in
  let model = Meanfield.Batch_ws.model ~event_rate ~mean_batch () in
  let fp = Meanfield.Drive.fixed_point model in
  let predicted = Meanfield.Model.mean_time model fp.Meanfield.Drive.state in
  Alcotest.(check bool)
    (Printf.sprintf "within 3%% (sim %.3f model %.3f)"
       summary.Wsim.Runner.mean_sojourn predicted)
    true
    (Float.abs (summary.Wsim.Runner.mean_sojourn -. predicted) /. predicted
    < 0.03)

let test_batch_validation () =
  Alcotest.check_raises "batch"
    (Invalid_argument "Cluster.create: batch_mean must be at least 1")
    (fun () ->
      ignore
        (Wsim.Cluster.create
           ~rng:(Prob.Rng.create ~seed:0)
           { Wsim.Cluster.default with batch_mean = 0.5 }))

(* ---------- sojourn quantiles ---------- *)

let test_quantiles_ordered_and_sane () =
  let r = run_once ~n:16 ~lambda:0.9 ~policy:Wsim.Policy.simple () in
  Alcotest.(check bool) "p50 < mean" true
    (r.Wsim.Cluster.sojourn_p50 < r.Wsim.Cluster.mean_sojourn);
  Alcotest.(check bool) "p50 < p95 < p99" true
    (r.Wsim.Cluster.sojourn_p50 < r.Wsim.Cluster.sojourn_p95
    && r.Wsim.Cluster.sojourn_p95 < r.Wsim.Cluster.sojourn_p99)

let test_mm1_quantiles_exact () =
  (* M/M/1 sojourn is Exp(mu - lambda): quantiles are -ln(1-p)/(mu-lambda) *)
  let r =
    run_once ~lambda:0.8 ~horizon:400_000.0 ~warmup:20_000.0 ()
  in
  check_close 0.15 "median" (5.0 *. log 2.0) r.Wsim.Cluster.sojourn_p50;
  check_close 0.6 "p95" (-5.0 *. log 0.05) r.Wsim.Cluster.sojourn_p95;
  check_close 1.2 "p99" (-5.0 *. log 0.01) r.Wsim.Cluster.sojourn_p99

let test_stealing_cuts_tail_latency () =
  let p99 policy =
    (run_once ~n:32 ~lambda:0.9 ~policy ()).Wsim.Cluster.sojourn_p99
  in
  Alcotest.(check bool) "stealing cuts p99" true
    (p99 Wsim.Policy.simple < p99 Wsim.Policy.No_stealing /. 2.0)

(* ---------- static runs ---------- *)

let test_static_drains_and_measures () =
  let rng = Prob.Rng.create ~seed:5 in
  let sim =
    Wsim.Cluster.create ~rng
      {
        Wsim.Cluster.default with
        n = 32;
        arrival_rate = 0.0;
        initial_load = 5;
        policy = Wsim.Policy.simple;
      }
  in
  let r = Wsim.Cluster.run_static sim in
  Alcotest.(check int) "all tasks completed" 160 r.Wsim.Cluster.completed;
  Alcotest.(check bool) "makespan below serial bound" true
    (r.Wsim.Cluster.makespan > 0.0 && r.Wsim.Cluster.makespan < 160.0);
  (* total work is 160 exponential(1) tasks on 32 processors: makespan at
     least around 5 on average; sanity lower bound of 1.0 *)
  Alcotest.(check bool) "makespan nontrivial" true
    (r.Wsim.Cluster.makespan > 1.0)

let test_static_rejects_arrivals () =
  let rng = Prob.Rng.create ~seed:6 in
  let sim =
    Wsim.Cluster.create ~rng
      { Wsim.Cluster.default with n = 4; arrival_rate = 0.5; initial_load = 1 }
  in
  Alcotest.check_raises "arrivals"
    (Invalid_argument "Cluster.run_static: external arrivals never stop")
    (fun () -> ignore (Wsim.Cluster.run_static sim))

let test_static_stealing_helps () =
  let makespan policy =
    let summary =
      Wsim.Runner.replicate_static ~seed:9 ~runs:5
        {
          Wsim.Cluster.default with
          n = 32;
          arrival_rate = 0.0;
          initial_load = 10;
          policy;
        }
    in
    Array.fold_left
      (fun acc (r : Wsim.Cluster.result) -> acc +. r.Wsim.Cluster.makespan)
      0.0 summary.Wsim.Runner.per_run
    /. 5.0
  in
  Alcotest.(check bool) "stealing reduces makespan" true
    (makespan Wsim.Policy.simple < makespan Wsim.Policy.No_stealing)

(* ---------- spawn (internal arrivals) ---------- *)

let test_spawn_increases_load () =
  let run spawn_rate =
    let rng = Prob.Rng.create ~seed:20 in
    let sim =
      Wsim.Cluster.create ~rng
        {
          Wsim.Cluster.default with
          n = 8;
          arrival_rate = 0.4;
          spawn_rate;
          policy = Wsim.Policy.simple;
        }
    in
    (Wsim.Cluster.run sim ~horizon:20_000.0 ~warmup:2_000.0)
      .Wsim.Cluster.mean_load
  in
  Alcotest.(check bool) "spawning adds load" true (run 0.3 > run 0.0 +. 0.1)

(* ---------- config validation ---------- *)

let test_config_validation () =
  let make config =
    ignore (Wsim.Cluster.create ~rng:(Prob.Rng.create ~seed:0) config)
  in
  Alcotest.check_raises "stealing needs 2"
    (Invalid_argument "Cluster.create: stealing needs at least 2 processors")
    (fun () -> make { Wsim.Cluster.default with n = 1 });
  Alcotest.check_raises "negative arrival"
    (Invalid_argument "Cluster.create: negative arrival rate") (fun () ->
      make { Wsim.Cluster.default with arrival_rate = -0.1 });
  Alcotest.check_raises "speeds length"
    (Invalid_argument "Cluster.create: speeds array has wrong length")
    (fun () ->
      make { Wsim.Cluster.default with n = 4; speeds = Some [| 1.0 |] });
  Alcotest.check_raises "bad warmup"
    (Invalid_argument "Cluster.run: need 0 <= warmup < horizon") (fun () ->
      let rng = Prob.Rng.create ~seed:0 in
      let sim =
        Wsim.Cluster.create ~rng { Wsim.Cluster.default with n = 2 }
      in
      ignore (Wsim.Cluster.run sim ~horizon:10.0 ~warmup:20.0))

(* ---------- runner ---------- *)

let test_runner_reproducible () =
  let fidelity = { Wsim.Runner.runs = 2; horizon = 2_000.0; warmup = 200.0 } in
  let config = { Wsim.Cluster.default with n = 8; arrival_rate = 0.7 } in
  let a = Wsim.Runner.replicate ~seed:31 ~fidelity config in
  let b = Wsim.Runner.replicate ~seed:31 ~fidelity config in
  check_close 0.0 "same summary" a.Wsim.Runner.mean_sojourn
    b.Wsim.Runner.mean_sojourn

let test_runner_summary_identities () =
  let config = { Wsim.Cluster.default with n = 8; arrival_rate = 0.7 } in
  let summary =
    Wsim.Runner.replicate ~seed:3
      ~fidelity:{ Wsim.Runner.runs = 4; horizon = 3_000.0; warmup = 300.0 }
      config
  in
  Alcotest.(check int) "per-run array" 4
    (Array.length summary.Wsim.Runner.per_run);
  (* the summary mean is exactly the mean of per-run means *)
  let direct =
    Array.fold_left
      (fun acc (r : Wsim.Cluster.result) -> acc +. r.Wsim.Cluster.mean_sojourn)
      0.0 summary.Wsim.Runner.per_run
    /. 4.0
  in
  check_close 1e-9 "summary mean" direct summary.Wsim.Runner.mean_sojourn;
  Alcotest.(check bool) "ci finite and positive" true
    (summary.Wsim.Runner.sojourn_ci95 > 0.0
    && Float.is_finite summary.Wsim.Runner.sojourn_ci95)

(* ---------- summarize edge cases ---------- *)

let synthetic_result ?(mean_sojourn = 1.0) ?(mean_load = 0.8)
    ?(steal_attempts = 0) ?(steal_successes = 0) () =
  {
    Wsim.Cluster.duration = 100.0;
    completed = 50;
    mean_sojourn;
    sojourn_ci95 = 0.1;
    sojourn_p50 = 0.7;
    sojourn_p95 = 2.0;
    sojourn_p99 = 3.0;
    mean_load;
    tail = (fun _ -> 0.0);
    steal_attempts;
    steal_successes;
    tasks_stolen = steal_successes;
    rebalances = 0;
    makespan = nan;
  }

let test_summarize_all_nan_sojourns () =
  (* every run's window saw no completions: the mean must be nan, not a
     division artefact, and the runs count must still be honest *)
  let s =
    Wsim.Runner.summarize
      [|
        synthetic_result ~mean_sojourn:nan ();
        synthetic_result ~mean_sojourn:nan ();
      |]
  in
  Alcotest.(check int) "runs" 2 s.Wsim.Runner.runs;
  Alcotest.(check bool) "mean nan" true
    (Float.is_nan s.Wsim.Runner.mean_sojourn);
  Alcotest.(check bool) "ci nan" true
    (Float.is_nan s.Wsim.Runner.sojourn_ci95);
  (* loads were finite, so the load average survives *)
  check_close 1e-12 "load" 0.8 s.Wsim.Runner.mean_load

let test_summarize_nan_runs_excluded () =
  (* a nan run is dropped from the sojourn statistics, not poisoning them *)
  let s =
    Wsim.Runner.summarize
      [|
        synthetic_result ~mean_sojourn:2.0 ();
        synthetic_result ~mean_sojourn:nan ();
        synthetic_result ~mean_sojourn:4.0 ();
      |]
  in
  Alcotest.(check int) "runs" 3 s.Wsim.Runner.runs;
  check_close 1e-12 "mean over finite runs" 3.0 s.Wsim.Runner.mean_sojourn

let test_summarize_zero_steal_attempts () =
  let s =
    Wsim.Runner.summarize
      [| synthetic_result (); synthetic_result () |]
  in
  Alcotest.(check bool) "success rate nan" true
    (Float.is_nan s.Wsim.Runner.steal_success_rate);
  let s' =
    Wsim.Runner.summarize
      [|
        synthetic_result ~steal_attempts:4 ~steal_successes:1 ();
        synthetic_result ~steal_attempts:4 ~steal_successes:2 ();
      |]
  in
  check_close 1e-12 "pooled rate" 0.375 s'.Wsim.Runner.steal_success_rate

let test_summarize_single_run_ci () =
  (* one run gives no variance estimate: the CI half-width must be nan,
     while the mean passes through exactly *)
  let s = Wsim.Runner.summarize [| synthetic_result ~mean_sojourn:5.5 () |] in
  Alcotest.(check int) "runs" 1 s.Wsim.Runner.runs;
  check_close 1e-12 "mean" 5.5 s.Wsim.Runner.mean_sojourn;
  Alcotest.(check bool) "single-run ci nan" true
    (Float.is_nan s.Wsim.Runner.sojourn_ci95)

let test_summarize_empty () =
  let s = Wsim.Runner.summarize [||] in
  Alcotest.(check int) "runs" 0 s.Wsim.Runner.runs;
  Alcotest.(check bool) "mean nan" true
    (Float.is_nan s.Wsim.Runner.mean_sojourn)

(* ---------- golden bit-identity ---------- *)

(* The packed-payload hot path rewrite promises bit-identical output at
   the same seed. These goldens were captured from the pre-rewrite
   simulator (record events, option-returning engine) and are compared
   hex-exactly: "%h" prints the full mantissa, so any drift in event
   ordering, RNG draw order or float arithmetic shows up as a failure,
   not a tolerance blur. *)

let golden_line name (r : Wsim.Cluster.result) =
  Printf.sprintf
    "%s: completed=%d mean=%h ci=%h p50=%h p95=%h p99=%h load=%h att=%d \
     succ=%d stolen=%d reb=%d makespan=%h tail1=%h tail2=%h tail3=%h"
    name r.completed r.mean_sojourn r.sojourn_ci95 r.sojourn_p50 r.sojourn_p95
    r.sojourn_p99 r.mean_load r.steal_attempts r.steal_successes
    r.tasks_stolen r.rebalances r.makespan (r.tail 1) (r.tail 2) (r.tail 3)

let golden_run ?(horizon = 2_000.0) ?(warmup = 200.0) ~seed cfg =
  let rng = Prob.Rng.create ~seed in
  let sim = Wsim.Cluster.create ~rng cfg in
  Wsim.Cluster.run sim ~horizon ~warmup

let golden_case (name, seed, cfg, expected) =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (golden_line name (golden_run ~seed cfg)))

let hetero_speeds = [| 0.5; 0.75; 1.0; 1.25; 1.5; 0.8; 1.2; 1.0 |]

let golden_cases =
  let d = Wsim.Cluster.default in
  [
    ( "simple",
      42,
      { d with n = 16; arrival_rate = 0.9; policy = Wsim.Policy.simple },
      "simple: completed=26069 mean=0x1.e33d686bb2e8fp+1 \
       ci=0x1.63ed8e1faae76p-5 p50=0x1.5539fe4ffe5c4p+1 \
       p95=0x1.6d1ac4f6e381ap+3 p99=0x1.10ff9a94037d3p+4 \
       load=0x1.b8009d715902ep+1 att=7946 succ=5005 stolen=5005 reb=0 \
       makespan=nan tail1=0x1.ce0765bbf9886p-1 tail2=0x1.512cb554bb92cp-1 \
       tail3=0x1.f032a7d8a0354p-2" );
    ( "multisteal",
      7,
      {
        d with
        n = 16;
        arrival_rate = 0.9;
        policy =
          Wsim.Policy.On_empty { threshold = 6; choices = 2; steal_count = 3 };
      },
      "multisteal: completed=25962 mean=0x1.0b66c26d24dedp+2 \
       ci=0x1.2cc6170e5bffbp-5 p50=0x1.c9c0083f2f97cp+1 \
       p95=0x1.3c8b392760ffap+3 p99=0x1.c6f10be09a6bdp+3 \
       load=0x1.e210fd8be1ffep+1 att=3819 succ=1193 stolen=3579 reb=0 \
       makespan=nan tail1=0x1.d2b2b8a20183ep-1 tail2=0x1.966d28ee7916p-1 \
       tail3=0x1.497a93e2c289ap-1" );
    ( "repeated",
      11,
      {
        d with
        n = 8;
        arrival_rate = 0.85;
        policy = Wsim.Policy.Repeated { retry_rate = 1.5; threshold = 2 };
      },
      "repeated: completed=12295 mean=0x1.2e5286d04c2dep+1 \
       ci=0x1.464516e2b5eb2p-5 p50=0x1.baeaff45fd294p+0 \
       p95=0x1.bf4917fec2a12p+2 p99=0x1.7a8260c865ffp+3 \
       load=0x1.0247651f29942p+1 att=9463 succ=4017 stolen=4017 reb=0 \
       makespan=nan tail1=0x1.b86cd69590833p-1 tail2=0x1.edad104cac38cp-2 \
       tail3=0x1.178a9157a8732p-2" );
    ( "transfer",
      13,
      {
        d with
        n = 16;
        arrival_rate = 0.85;
        policy =
          Wsim.Policy.Transfer { transfer_rate = 0.5; threshold = 3; stages = 2 };
      },
      "transfer: completed=24432 mean=0x1.325c8dbf3df4bp+2 \
       ci=0x1.aefe43db3f2c1p-5 p50=0x1.d77777d8fe77cp+1 \
       p95=0x1.b8e96e857a37bp+3 p99=0x1.39149927e19fcp+4 \
       load=0x1.0449a57f86586p+2 att=3869 succ=2068 stolen=2068 reb=0 \
       makespan=nan tail1=0x1.b622f32212c88p-1 tail2=0x1.66f940676f115p-1 \
       tail3=0x1.1a2f418d96b06p-1" );
    ( "rebalance",
      15,
      {
        d with
        n = 8;
        arrival_rate = 0.8;
        policy =
          Wsim.Policy.Rebalance { rate = (fun l -> if l = 0 then 1.0 else 0.2) };
      },
      "rebalance: completed=11428 mean=0x1.37310d1ddf366p+1 \
       ci=0x1.1bb6d675f6cccp-5 p50=0x1.017a00d6a7132p+1 \
       p95=0x1.8e2eceb1d3db4p+2 p99=0x1.0e058816f4017p+3 \
       load=0x1.ee850d7b4b119p+0 att=0 succ=0 stolen=0 reb=2439 makespan=nan \
       tail1=0x1.9725cd9d335eap-1 tail2=0x1.0ed3af8e3a585p-1 \
       tail3=0x1.36c3284c1bd79p-2" );
    ( "spawn",
      17,
      {
        d with
        n = 8;
        arrival_rate = 0.5;
        spawn_rate = 0.3;
        policy = Wsim.Policy.simple;
      },
      "spawn: completed=10284 mean=0x1.60c09c1e5378p+1 \
       ci=0x1.8734da95c0a9bp-5 p50=0x1.07bfceef0edc3p+1 \
       p95=0x1.eaa167022adb8p+2 p99=0x1.872786142378ep+3 \
       load=0x1.f7e7e63274ff7p+0 att=4202 succ=1983 stolen=1983 reb=0 \
       makespan=nan tail1=0x1.739f8c0ee56f8p-1 tail2=0x1.d6d1d2d6530acp-2 \
       tail3=0x1.2b3408cb30d25p-2" );
    ( "batch-placement",
      19,
      {
        d with
        n = 16;
        arrival_rate = 0.4;
        batch_mean = 2.0;
        placement = 2;
        policy = Wsim.Policy.No_stealing;
      },
      "batch-placement: completed=23224 mean=0x1.f18ac7b61dda6p+1 \
       ci=0x1.43721bf716281p-5 p50=0x1.976308b3ee62fp+1 \
       p95=0x1.3e11873d5c51bp+3 p99=0x1.af484e8d0f0abp+3 \
       load=0x1.9174c23dd197cp+1 att=0 succ=0 stolen=0 reb=0 makespan=nan \
       tail1=0x1.9e36585aeda61p-1 tail2=0x1.5af453c8b9ccap-1 \
       tail3=0x1.128ebf948b6cfp-1" );
    ( "steal-half",
      23,
      {
        d with
        n = 16;
        arrival_rate = 0.9;
        policy = Wsim.Policy.Steal_half { threshold = 2; choices = 1 };
      },
      "steal-half: completed=26022 mean=0x1.8e4bccf4aeb29p+1 \
       ci=0x1.e7a2151ba832ap-6 p50=0x1.44de9b391052p+1 \
       p95=0x1.014478afeda01p+3 p99=0x1.6ff90af5841cdp+3 \
       load=0x1.676dbe9f4ba4ep+1 att=7544 succ=4720 stolen=7662 reb=0 \
       makespan=nan tail1=0x1.cda4834b169d8p-1 tail2=0x1.563334cf6de42p-1 \
       tail3=0x1.cf6a0592e0c39p-2" );
    ( "ring",
      29,
      {
        d with
        n = 16;
        arrival_rate = 0.9;
        policy = Wsim.Policy.Ring_steal { threshold = 2; radius = 2 };
      },
      "ring: completed=25726 mean=0x1.041276e6be6fep+2 \
       ci=0x1.99a8140abed7ep-5 p50=0x1.6381f0332fc0ap+1 \
       p95=0x1.95dbc985c8b65p+3 p99=0x1.55154fd3e7542p+4 \
       load=0x1.d0c9681f61596p+1 att=7442 succ=4610 stolen=4610 reb=0 \
       makespan=nan tail1=0x1.cdcad6659a968p-1 tail2=0x1.545593dd61a2ap-1 \
       tail3=0x1.f70d732a1ba1p-2" );
    ( "preemptive",
      31,
      {
        d with
        n = 8;
        arrival_rate = 0.8;
        policy = Wsim.Policy.Preemptive { begin_at = 1; offset = 3 };
      },
      "preemptive: completed=11714 mean=0x1.58744e69c1285p+1 \
       ci=0x1.4d9aaa962305ap-5 p50=0x1.0d54319a3bc48p+1 \
       p95=0x1.ce10d601b7952p+2 p99=0x1.50f1bbfe69f06p+3 \
       load=0x1.17fcbb2410235p+1 att=7447 succ=2038 stolen=2038 reb=0 \
       makespan=nan tail1=0x1.a101bd95cea63p-1 tail2=0x1.2b57d4fbb557p-1 \
       tail3=0x1.6544062433f38p-2" );
    ( "hetero",
      41,
      {
        d with
        n = 4;
        arrival_rate = 0.5;
        speeds = Some [| 0.5; 1.0; 1.5; 2.0 |];
        policy = Wsim.Policy.No_stealing;
      },
      "hetero: completed=3523 mean=0x1.31d36dda994fbp+4 \
       ci=0x1.0c80643aa166ep+0 p50=0x1.5157e71723353p+0 \
       p95=0x1.5505591c595adp+6 p99=0x1.814df7fd3b447p+6 \
       load=0x1.2bddc7d46d9e7p+3 att=0 succ=0 stolen=0 reb=0 makespan=nan \
       tail1=0x1.0a82f7d475131p-1 tail2=0x1.6d0089ae3a729p-2 \
       tail3=0x1.3466c8c740f83p-2" );
    (* The cases below were captured from the record-per-processor core
       before the simulator moved onto flat lanes, to pin the option
       combinations the cases above leave open. *)
    ( "transfer-exp",
      47,
      {
        d with
        n = 16;
        arrival_rate = 0.85;
        policy =
          Wsim.Policy.Transfer { transfer_rate = 0.5; threshold = 3; stages = 1 };
      },
      "transfer-exp: completed=24472 mean=0x1.1120de818bb2ap+2 \
       ci=0x1.85b9b7db3557dp-5 p50=0x1.a38fd26a4e6efp+1 \
       p95=0x1.8a32468216defp+3 p99=0x1.29cdbf64f2b0ap+4 \
       load=0x1.cf6b451983f54p+1 att=4418 succ=2138 stolen=2138 reb=0 \
       makespan=nan tail1=0x1.ad504306ffc5p-1 \
       tail2=0x1.567cc11931a2dp-1 tail3=0x1.049065ace2ccep-1" );
    ( "multichoice-hetero",
      53,
      {
        d with
        n = 8;
        arrival_rate = 0.7;
        speeds = Some hetero_speeds;
        policy =
          Wsim.Policy.On_empty { threshold = 2; choices = 2; steal_count = 1 };
      },
      "multichoice-hetero: completed=9954 mean=0x1.f269d713068fdp+0 \
       ci=0x1.3eea75598f427p-5 p50=0x1.619862a11ffd8p+0 \
       p95=0x1.796a4061aee1fp+2 p99=0x1.34b3186c004cap+3 \
       load=0x1.588b70700904ap+0 att=6409 succ=3360 stolen=3360 reb=0 \
       makespan=nan tail1=0x1.7594a28811e7dp-1 \
       tail2=0x1.52b3d94c8f1bbp-2 tail3=0x1.337e517a0636p-3" );
    ( "steal-half-hetero",
      59,
      {
        d with
        n = 8;
        arrival_rate = 0.7;
        speeds = Some hetero_speeds;
        policy = Wsim.Policy.Steal_half { threshold = 2; choices = 2 };
      },
      "steal-half-hetero: completed=9900 mean=0x1.ca399f28a4899p+0 \
       ci=0x1.06a3b4d121221p-5 p50=0x1.58d386f7149e9p+0 \
       p95=0x1.3bc5053849a0bp+2 p99=0x1.e23e3478afea8p+2 \
       load=0x1.3abb17da1305ep+0 att=6219 succ=3010 stolen=3555 reb=0 \
       makespan=nan tail1=0x1.6b7f3f321a3bdp-1 \
       tail2=0x1.4761921b433cfp-2 tail3=0x1.fd057f37f3ab6p-4" );
    ( "repeated-spawn",
      61,
      {
        d with
        n = 8;
        arrival_rate = 0.5;
        spawn_rate = 0.3;
        policy = Wsim.Policy.Repeated { retry_rate = 1.0; threshold = 3 };
      },
      "repeated-spawn: completed=10250 mean=0x1.2b76f0a27b09bp+1 \
       ci=0x1.380bc31bc7321p-5 p50=0x1.d5495b51783b1p+0 \
       p95=0x1.977333d63832ap+2 p99=0x1.1fb64d66a3435p+3 \
       load=0x1.aa5884ab25e4ep+0 att=8767 succ=1823 stolen=1823 reb=0 \
       makespan=nan tail1=0x1.69d54915da25ep-1 \
       tail2=0x1.c77b51ad0713ap-2 tail3=0x1.ecd4734c0fcfdp-3" );
    ( "batch-placement-simple",
      67,
      {
        d with
        n = 16;
        arrival_rate = 0.4;
        batch_mean = 2.0;
        placement = 2;
        policy = Wsim.Policy.simple;
      },
      "batch-placement-simple: completed=23311 \
       mean=0x1.7097eb67875f4p+1 ci=0x1.efb331a526cf6p-6 \
       p50=0x1.25d9184a10abp+1 p95=0x1.e7b0f499d2583p+2 \
       p99=0x1.58d5d541b3031p+3 load=0x1.2ac9690fc6f68p+1 att=8556 \
       succ=4443 stolen=4443 reb=0 makespan=nan \
       tail1=0x1.a0510a55cb194p-1 tail2=0x1.14bfa6c98e367p-1 \
       tail3=0x1.7dbe0b0135ab3p-2" );
    ( "initial-load",
      71,
      {
        d with
        n = 16;
        arrival_rate = 0.8;
        initial_load = 3;
        policy = Wsim.Policy.simple;
      },
      "initial-load: completed=22921 mean=0x1.3df4002eb2409p+1 \
       ci=0x1.dfe999ab1f7e4p-6 p50=0x1.d6031fca34f57p+0 \
       p95=0x1.c5b0d79931b2bp+2 p99=0x1.586e0c8b66977p+3 \
       load=0x1.f96a2f15b62dp+0 att=10197 succ=4799 stolen=4799 reb=0 \
       makespan=nan tail1=0x1.93e8e1e866e9ep-1 \
       tail2=0x1.e63c59fb3328cp-2 tail3=0x1.258f0c02f044dp-2" );
  ]

let test_golden_static () =
  let rng = Prob.Rng.create ~seed:37 in
  let sim =
    Wsim.Cluster.create ~rng
      {
        Wsim.Cluster.default with
        n = 16;
        arrival_rate = 0.0;
        initial_load = 4;
        policy = Wsim.Policy.simple;
      }
  in
  Alcotest.(check string) "static"
    "static: completed=64 mean=0x1.1e9fedfeb0fbcp+1 ci=0x1.dc6e449d260b1p-2 \
     p50=0x1.b7733a3ebc4ffp+0 p95=0x1.8a4a29c578572p+2 \
     p99=0x1.a03b07b3925f2p+2 load=0x1.42686cb790904p+0 att=25 succ=9 \
     stolen=9 reb=0 makespan=0x1.c72cac27ec3ep+2 tail1=0x1.0fd47181483a7p-1 \
     tail2=0x1.73ddb691985p-2 tail3=0x1.08210aa17bbe9p-2"
    (golden_line "static" (Wsim.Cluster.run_static sim))

let test_golden_observed () =
  let rng = Prob.Rng.create ~seed:43 in
  let sim =
    Wsim.Cluster.create ~rng
      {
        Wsim.Cluster.default with
        n = 16;
        arrival_rate = 0.9;
        policy = Wsim.Policy.simple;
      }
  in
  let acc = ref 0.0 in
  let r =
    Wsim.Cluster.run_observed sim ~horizon:500.0 ~warmup:50.0
      ~sample_every:25.0 ~observe:(fun time tail ->
        acc := !acc +. (time *. 1e-3) +. tail 1 +. (2.0 *. tail 3))
  in
  Alcotest.(check string) "observed"
    "observed: checksum=0x1.578p+5 completed=6501 mean=0x1.92e00730b0072p+1"
    (Printf.sprintf "observed: checksum=%h completed=%d mean=%h" !acc
       r.Wsim.Cluster.completed r.Wsim.Cluster.mean_sojourn)

(* Pinned, like the tail of [golden_cases], from the record-per-processor
   core: observed runs under the two policies with timers and transit
   accounting, static drains under the two victim rules no other golden
   drains with, and a run on an engine that already ran another
   configuration. *)

let observed_line name ~seed cfg =
  let sim = Wsim.Cluster.create ~rng:(Prob.Rng.create ~seed) cfg in
  let acc = ref 0.0 in
  let r =
    Wsim.Cluster.run_observed sim ~horizon:500.0 ~warmup:50.0
      ~sample_every:25.0 ~observe:(fun time tail ->
        acc := !acc +. (time *. 1e-3) +. tail 1 +. (2.0 *. tail 3))
  in
  Printf.sprintf "checksum=%h %s" !acc (golden_line name r)

let static_line name ~seed policy =
  let sim =
    Wsim.Cluster.create ~rng:(Prob.Rng.create ~seed)
      {
        Wsim.Cluster.default with
        n = 16;
        arrival_rate = 0.0;
        initial_load = 4;
        policy;
      }
  in
  golden_line name (Wsim.Cluster.run_static sim)

let pinned_case name expected line =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (line ()))

let pinned_cases =
  [
    pinned_case "observed-transfer"
      "checksum=0x1.588p+5 observed-transfer: completed=6156 \
       mean=0x1.0dd3083e274e6p+2 ci=0x1.76e15c46c0072p-4 \
       p50=0x1.a2ef28e20d93ap+1 p95=0x1.88548dfb5988cp+3 \
       p99=0x1.1826e46f847bbp+4 load=0x1.cbce7c648f63ap+1 att=1067 \
       succ=574 stolen=574 reb=0 makespan=nan \
       tail1=0x1.b12ff50cb8eecp-1 tail2=0x1.5b1aafd3a4dc1p-1 \
       tail3=0x1.09bd89ba77f8bp-1" (fun () ->
        observed_line "observed-transfer" ~seed:73
          {
            Wsim.Cluster.default with
            n = 16;
            arrival_rate = 0.85;
            policy =
              Wsim.Policy.Transfer
                { transfer_rate = 0.5; threshold = 3; stages = 2 };
          });
    pinned_case "observed-rebalance"
      "checksum=0x1.16p+5 observed-rebalance: completed=2841 \
       mean=0x1.36e733498955p+1 ci=0x1.2cfb69488c949p-4 \
       p50=0x1.02117d0f3ce79p+1 p95=0x1.947108cf447eap+2 \
       p99=0x1.333c8c7ead07cp+3 load=0x1.e99bb8f95994ap+0 att=0 succ=0 \
       stolen=0 reb=579 makespan=nan tail1=0x1.91fcaffa1bc41p-1 \
       tail2=0x1.027a6cb9f1811p-1 tail3=0x1.2d7b5070835b8p-2" (fun () ->
        observed_line "observed-rebalance" ~seed:79
          {
            Wsim.Cluster.default with
            n = 8;
            arrival_rate = 0.8;
            policy =
              Wsim.Policy.Rebalance
                { rate = (fun l -> if l = 0 then 1.0 else 0.2) };
          });
    pinned_case "static-preemptive"
      "static-preemptive: completed=64 mean=0x1.716160a6db31fp+1 \
       ci=0x1.f3041a1d2845bp-2 p50=0x1.3d378e8380ea2p+1 \
       p95=0x1.9d921941e2e49p+2 p99=0x1.bd81291e2cd6cp+2 \
       load=0x1.5ab91564933cap+0 att=34 succ=2 stolen=2 reb=0 \
       makespan=0x1.10ba992ab3cfp+3 tail1=0x1.0eefec96caa7bp-1 \
       tail2=0x1.802b2e0267717p-2 tail3=0x1.37e9f2b66b1c9p-2" (fun () ->
        static_line "static-preemptive" ~seed:83
          (Wsim.Policy.Preemptive { begin_at = 1; offset = 3 }));
    pinned_case "static-ring"
      "static-ring: completed=64 mean=0x1.11fd96f010132p+1 \
       ci=0x1.aae2e264ffe4bp-2 p50=0x1.d6057b7916979p+0 \
       p95=0x1.1d9497522b315p+2 p99=0x1.291f9e47d700cp+2 \
       load=0x1.c7e84385fb2eep-1 att=22 succ=6 stolen=6 reb=0 \
       makespan=0x1.33b37c5fdf1ddp+3 tail1=0x1.a4b81f0f5a102p-2 \
       tail2=0x1.0cf76bfd8841dp-2 tail3=0x1.3bd7f475ab463p-3" (fun () ->
        static_line "static-ring" ~seed:89
          (Wsim.Policy.Ring_steal { threshold = 2; radius = 2 }));
    pinned_case "reused-engine"
      "reused-engine: completed=25921 mean=0x1.72b1de0d49226p+1 \
       ci=0x1.bf2e2008c7d84p-6 p50=0x1.2c965a475ffebp+1 \
       p95=0x1.d9fac7741f24dp+2 p99=0x1.4bab08d16d915p+3 \
       load=0x1.4da815b55d602p+1 att=8053 succ=4988 stolen=7862 reb=0 \
       makespan=nan tail1=0x1.cbd5cc2df2952p-1 \
       tail2=0x1.4a23bfd911883p-1 tail3=0x1.aa43c6b7ddaecp-2" (fun () ->
        let engine =
          Desim.Packed_engine.create ~scheduler:Desim.Packed_engine.Calendar ()
        in
        let run ~seed cfg =
          let sim =
            Wsim.Cluster.create ~engine ~rng:(Prob.Rng.create ~seed)
              { cfg with Wsim.Cluster.scheduler = Wsim.Cluster.Calendar }
          in
          Wsim.Cluster.run sim ~horizon:2_000.0 ~warmup:200.0
        in
        ignore
          (run ~seed:97
             {
               Wsim.Cluster.default with
               n = 32;
               arrival_rate = 0.95;
               policy =
                 Wsim.Policy.Transfer
                   { transfer_rate = 1.0; threshold = 2; stages = 1 };
             });
        golden_line "reused-engine"
          (run ~seed:101
             {
               Wsim.Cluster.default with
               n = 16;
               arrival_rate = 0.9;
               policy = Wsim.Policy.Steal_half { threshold = 2; choices = 1 };
             }));
  ]

(* The calendar queue promises the same dispatch order as the binary
   heap, not just the same multiset of events: at n = 1024 a single
   busy window produces hundreds of thousands of heap operations, so
   any divergence in tie-breaking or bucket bookkeeping shows up as a
   hex mismatch here. Both schedulers must reproduce one shared golden
   string. *)

let golden_n1024 scheduler =
  golden_line "n1024"
    (golden_run ~horizon:60.0 ~warmup:10.0 ~seed:1024
       {
         Wsim.Cluster.default with
         n = 1024;
         arrival_rate = 0.9;
         policy = Wsim.Policy.simple;
         scheduler;
       })

let golden_n1024_expected =
  "n1024: completed=45176 mean=0x1.897d13b0d0a2p+1 \
   ci=0x1.9d926c91b41cfp-6 p50=0x1.29090b36c3797p+1 \
   p95=0x1.209e97d46e647p+3 p99=0x1.b43166fd05979p+3 \
   load=0x1.6c75bddc51ad1p+1 att=16781 succ=9569 stolen=9569 reb=0 \
   makespan=nan tail1=0x1.c500cb3e0b143p-1 tail2=0x1.3b9405d574632p-1 \
   tail3=0x1.b33293d927c98p-2"

let test_golden_n1024_heap () =
  Alcotest.(check string)
    "n1024 heap" golden_n1024_expected
    (golden_n1024 Wsim.Cluster.Heap)

let test_golden_n1024_calendar () =
  Alcotest.(check string)
    "n1024 calendar" golden_n1024_expected
    (golden_n1024 Wsim.Cluster.Calendar)

(* ---------- allocation budget ---------- *)

(* The steady-state event loop must not touch the minor heap. This is
   only achievable when cross-module [@inline] is honoured: dune's dev
   profile compiles with -opaque, which disables it, so a dev build
   legitimately boxes floats at module boundaries. We calibrate at
   runtime: a loop over Prob.Rng.float allocates ~0 words/call when
   inlining is active and a boxed float per call otherwise. In an
   inlined (release) build the budget is essentially zero; in an opaque
   build we still enforce a regression bound well below the ~59
   words/event the pre-rewrite hot path allocated. *)

let test_allocation_budget () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let sink = Array.make 1 0.0 in
      let g = Prob.Rng.create ~seed:1 in
      let iters = 100_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to iters do
        sink.(0) <- sink.(0) +. Prob.Rng.float g
      done;
      let calib = (Gc.minor_words () -. w0) /. float_of_int iters in
      let inlined = calib < 0.5 in
      let rng = Prob.Rng.create ~seed:5 in
      let sim =
        Wsim.Cluster.create ~rng
          {
            Wsim.Cluster.default with
            n = 64;
            arrival_rate = 0.9;
            policy = Wsim.Policy.simple;
          }
      in
      (* warm-up: grows the heap lanes, deques and the steal scratch
         buffer to steady-state size so the measured window sees no
         capacity doubling *)
      Wsim.Cluster.advance sim ~until:2_000.0;
      let e0 = Wsim.Cluster.events_dispatched sim in
      let w0 = Gc.minor_words () in
      Wsim.Cluster.advance sim ~until:12_000.0;
      let dw = Gc.minor_words () -. w0 in
      let de = Wsim.Cluster.events_dispatched sim - e0 in
      let per_event = dw /. float_of_int de in
      let budget = if inlined then 0.05 else 40.0 in
      Alcotest.(check bool)
        (Printf.sprintf
           "steady-state hot path within budget: %.3f words/event over %d \
            events (calibration %.2f words/draw, budget %.2f)"
           per_event de calib budget)
        true
        (per_event < budget)

let () =
  Alcotest.run "sim"
    [
      ( "task_queues",
        [
          Alcotest.test_case "fifo" `Quick test_queues_fifo;
          Alcotest.test_case "steal from back" `Quick
            test_queues_steal_from_back;
          Alcotest.test_case "wraparound" `Quick test_queues_wraparound;
          QCheck_alcotest.to_alcotest qcheck_queues_model;
        ] );
      ( "policy",
        [ Alcotest.test_case "validation" `Quick test_policy_validation ] );
      ( "ground-truth",
        [
          Alcotest.test_case "M/M/1 sojourn" `Slow test_mm1_sojourn;
          Alcotest.test_case "M/M/1 geometric tail" `Slow
            test_mm1_tail_geometric;
          Alcotest.test_case "M/D/1 sojourn" `Slow test_md1_sojourn;
          Alcotest.test_case "Little's law" `Slow test_little_law;
          Alcotest.test_case "throughput" `Slow test_throughput;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick
            test_seed_changes_result;
          Alcotest.test_case "steal counters" `Slow
            test_steal_counters_consistent;
          Alcotest.test_case "multi-steal counters" `Slow
            test_multisteal_counters;
          Alcotest.test_case "no stealing, no counters" `Quick
            test_no_stealing_counters_zero;
          Alcotest.test_case "spawn adds load" `Slow
            test_spawn_increases_load;
          Alcotest.test_case "config validation" `Quick
            test_config_validation;
        ] );
      ( "model-agreement",
        [
          Alcotest.test_case "simple WS" `Slow test_sim_matches_simple_model;
          Alcotest.test_case "threshold WS" `Slow
            test_sim_matches_threshold_model;
          Alcotest.test_case "constant service" `Slow
            test_sim_matches_erlang_model;
        ] );
      ( "placement",
        [
          Alcotest.test_case "matches supermarket model" `Slow
            test_placement_matches_supermarket;
          Alcotest.test_case "placement=1 unchanged" `Quick
            test_placement_one_unchanged;
          Alcotest.test_case "validation" `Quick test_placement_validation;
        ] );
      ( "batch",
        [
          Alcotest.test_case "matches batch model" `Slow
            test_batch_matches_model;
          Alcotest.test_case "validation" `Quick test_batch_validation;
        ] );
      ( "steal-half-ring",
        [
          Alcotest.test_case "steal-half matches model" `Slow
            test_steal_half_sim_matches_model;
          Alcotest.test_case "ring converges to uniform" `Slow
            test_ring_converges_to_uniform;
          Alcotest.test_case "staged transfer runs" `Slow
            test_staged_transfer_sim_runs;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "ordered and sane" `Slow
            test_quantiles_ordered_and_sane;
          Alcotest.test_case "M/M/1 exact quantiles" `Slow
            test_mm1_quantiles_exact;
          Alcotest.test_case "stealing cuts p99" `Slow
            test_stealing_cuts_tail_latency;
        ] );
      ( "static",
        [
          Alcotest.test_case "drains and measures" `Quick
            test_static_drains_and_measures;
          Alcotest.test_case "rejects arrivals" `Quick
            test_static_rejects_arrivals;
          Alcotest.test_case "stealing helps" `Slow
            test_static_stealing_helps;
        ] );
      ( "runner",
        [
          Alcotest.test_case "reproducible" `Quick test_runner_reproducible;
          Alcotest.test_case "summary identities" `Slow
            test_runner_summary_identities;
          Alcotest.test_case "summarize all-nan sojourns" `Quick
            test_summarize_all_nan_sojourns;
          Alcotest.test_case "summarize drops nan runs" `Quick
            test_summarize_nan_runs_excluded;
          Alcotest.test_case "summarize zero steal attempts" `Quick
            test_summarize_zero_steal_attempts;
          Alcotest.test_case "summarize single-run ci" `Quick
            test_summarize_single_run_ci;
          Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
        ] );
      ( "golden",
        List.map golden_case golden_cases
        @ [
            Alcotest.test_case "static" `Quick test_golden_static;
            Alcotest.test_case "observed" `Quick test_golden_observed;
            Alcotest.test_case "n1024 heap" `Quick test_golden_n1024_heap;
            Alcotest.test_case "n1024 calendar" `Quick
              test_golden_n1024_calendar;
          ]
        @ pinned_cases );
      ( "allocation",
        [
          Alcotest.test_case "steady-state budget" `Quick
            test_allocation_budget;
        ] );
    ]
