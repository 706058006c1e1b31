(* loadsteal — command-line front end.

   Subcommands:
     fixed-point   solve a mean-field model and print its predictions
     trajectory    integrate a model and print E[N](t)
     simulate      run the finite-n simulator under a policy
     experiment    regenerate a paper table / analysis experiment
     stability     L1-distance trace to the fixed point (Section 4)
     list          list available experiments
     check         generic diagnostics on one model's fixed point
     drain         a static (batch drain) system, fluid and simulated *)

open Cmdliner

let print_fixed_point name params solver stats =
  let model = Model_args.build_model name params in
  let fp = Meanfield.Drive.fixed_point ~solver model in
  let state = fp.Meanfield.Drive.state in
  Printf.printf "model:     %s\n" model.Meanfield.Model.name;
  Printf.printf "dim:       %d\n" model.Meanfield.Model.dim;
  Printf.printf "solver:    %s (used %s)\n"
    (Meanfield.Drive.solver_name solver)
    (Meanfield.Drive.solver_name fp.Meanfield.Drive.method_used);
  Printf.printf "converged: %b (residual %.2e, relaxation time %.0f)\n"
    fp.Meanfield.Drive.converged fp.Meanfield.Drive.residual
    fp.Meanfield.Drive.elapsed;
  if stats then begin
    Printf.printf "iterations: %d\n" fp.Meanfield.Drive.iterations;
    Printf.printf "evals:      %d\n" fp.Meanfield.Drive.evals
  end;
  Printf.printf "E[N] per processor: %.6f\n"
    (Meanfield.Metrics.mean_tasks model state);
  let et = Meanfield.Metrics.mean_time model state in
  if Float.is_nan et then print_endline "E[T]: n/a (no throughput)"
  else Printf.printf "E[T] time in system: %.6f\n" et;
  print_endline "tail densities s_i (fraction of processors with >= i tasks):";
  List.iter
    (fun (i, s) -> if s > 1e-12 then Printf.printf "  s_%-2d = %.8f\n" i s)
    (Meanfield.Metrics.tail_table ~upto:14 state);
  (match model.Meanfield.Model.predicted_tail_ratio with
  | Some f ->
      Printf.printf "tail ratio: predicted %.6f, fitted %.6f\n" (f state)
        (Meanfield.Metrics.empirical_tail_ratio state)
  | None ->
      Printf.printf "tail ratio (fitted): %.6f\n"
        (Meanfield.Metrics.empirical_tail_ratio state));
  if fp.Meanfield.Drive.converged then 0 else 1

let fixed_point_cmd =
  let solver =
    Arg.(
      value
      & opt
          (enum [ ("rk4", `Rk4); ("rk45", `Rk45); ("newton", `Newton) ])
          `Newton
      & info [ "solver" ] ~docv:"SOLVER"
          ~doc:
            "Fixed-point solver: $(b,rk4) (fixed-step relaxation, the seed \
             path), $(b,rk45) (adaptive relaxation) or $(b,newton) \
             (adaptive relaxation to a hand-over residual, then a Newton \
             corrector on a sparse Jacobian; the default).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Also print solver iterations and derivative evaluations.")
  in
  let doc =
    "Solve a mean-field model's fixed point and print predictions; exits 1 \
     when the solve did not converge."
  in
  Cmd.v
    (Cmd.info "fixed-point" ~doc)
    Term.(const print_fixed_point $ Model_args.model_term
          $ Model_args.params_term $ solver $ stats)

let print_trajectory name params horizon sample_every start =
  let model = Model_args.build_model name params in
  let start = if start = "warm" then `Warm else `Empty in
  let samples =
    Meanfield.Drive.trajectory ~start ~horizon ~sample_every model
  in
  Printf.printf "# t  E[N]  E[T]\n";
  List.iter
    (fun (t, s) ->
      let en = Meanfield.Metrics.mean_tasks model s in
      let et = Meanfield.Metrics.mean_time model s in
      Printf.printf "%10.3f  %12.6f  %12.6f\n" t en et)
    samples;
  0

let trajectory_cmd =
  let horizon =
    Arg.(value & opt float 100.0
         & info [ "horizon" ] ~docv:"TIME" ~doc:"Integration horizon.")
  in
  let sample_every =
    Arg.(value & opt float 5.0
         & info [ "sample-every" ] ~docv:"TIME" ~doc:"Sampling interval.")
  in
  let start =
    Arg.(value & opt (enum [ ("empty", "empty"); ("warm", "warm") ]) "empty"
         & info [ "start" ] ~doc:"Initial condition.")
  in
  let doc = "Integrate a model from an initial state and print E[N](t)." in
  Cmd.v
    (Cmd.info "trajectory" ~doc)
    Term.(const print_trajectory $ Model_args.model_term
          $ Model_args.params_term $ horizon $ sample_every $ start)

let print_simulate policy_name params n horizon warmup runs seed service
    initial_load scheduler shards latency =
  let policy = Model_args.build_policy policy_name params in
  let service =
    match service with
    | "exp" -> Prob.Dist.Exponential
    | "det" -> Prob.Dist.Deterministic
    | s -> (
        let stages =
          if String.starts_with ~prefix:"erlang:" s then
            int_of_string_opt (String.sub s 7 (String.length s - 7))
          else None
        in
        match stages with
        | Some c when c >= 1 -> Prob.Dist.Erlang_stages c
        | Some _ | None ->
            invalid_arg
              ("unknown service distribution " ^ s
             ^ " (expected exp, det or erlang:C with C >= 1)"))
  in
  let config =
    {
      Wsim.Cluster.n;
      arrival_rate = params.Model_args.lambda;
      spawn_rate = 0.0;
      service;
      speeds = None;
      policy;
      initial_load;
      placement = 1;
      batch_mean = 1.0;
      scheduler;
    }
  in
  let summary =
    Wsim.Runner.replicate_with ~seed ~runs (fun rng ->
        Wsim.Shard.run
          (Wsim.Shard.create ~rng
             { Wsim.Shard.cluster = config; shards; latency })
          ~horizon ~warmup)
  in
  Format.printf "policy:          %a@." Wsim.Policy.pp policy;
  Printf.printf "n=%d lambda=%g service=%s runs=%d horizon=%g warmup=%g\n" n
    params.Model_args.lambda
    (Format.asprintf "%a" Prob.Dist.pp_service service)
    runs horizon warmup;
  if shards > 1 then
    Printf.printf "shards=%d latency=%g (conservative lookahead)\n" shards
      latency;
  Printf.printf "mean sojourn E[T]: %.4f (+/- %.4f, 95%%)\n"
    summary.Wsim.Runner.mean_sojourn summary.Wsim.Runner.sojourn_ci95;
  Printf.printf "mean load E[N]:    %.4f per processor\n"
    summary.Wsim.Runner.mean_load;
  if not (Float.is_nan summary.Wsim.Runner.steal_success_rate) then
    Printf.printf "steal success:     %.1f%%\n"
      (100.0 *. summary.Wsim.Runner.steal_success_rate);
  0

let simulate_cmd =
  let n =
    Arg.(value & opt int 64
         & info [ "procs"; "n" ] ~docv:"N" ~doc:"Number of processors.")
  in
  let horizon =
    Arg.(value & opt float 20_000.0 & info [ "horizon" ] ~docv:"TIME"
         ~doc:"Simulated time per run.")
  in
  let warmup =
    Arg.(value & opt float 2_000.0 & info [ "warmup" ] ~docv:"TIME"
         ~doc:"Discarded prefix.")
  in
  let runs =
    Arg.(value & opt int 3 & info [ "runs" ] ~docv:"K"
         ~doc:"Independent replications.")
  in
  let seed =
    Arg.(value & opt int 20260704 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Root random seed.")
  in
  let service =
    Arg.(value & opt string "exp"
         & info [ "service" ] ~docv:"DIST"
             ~doc:"Service distribution: exp, det, or erlang:C.")
  in
  let initial_load =
    Arg.(value & opt int 0 & info [ "initial-load" ] ~docv:"L"
         ~doc:"Tasks seeded per processor at time 0.")
  in
  let scheduler =
    Arg.(value
         & opt
             (enum
                [ ("heap", Wsim.Cluster.Heap);
                  ("calendar", Wsim.Cluster.Calendar) ])
             Wsim.Cluster.Heap
         & info [ "scheduler" ] ~docv:"SCHED"
             ~doc:"Future-event set: $(b,heap) (binary heap) or \
                   $(b,calendar) (calendar queue, faster for large N). \
                   Results are bit-identical either way.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"S"
             ~doc:"Partition the cluster into $(docv) per-domain engines \
                   (conservative-lookahead PDES). $(b,--shards 1) \
                   reproduces the single-engine simulator draw-for-draw; \
                   larger counts are equally valid samples of the same \
                   model. Only single-probe tail-steal policies are \
                   shardable.")
  in
  let latency =
    Arg.(value & opt float 0.5
         & info [ "latency" ] ~docv:"L"
             ~doc:"Cross-shard transfer latency (the lookahead window) \
                   when $(b,--shards) > 1; must be positive.")
  in
  let doc = "Simulate a finite cluster under a stealing policy." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(const print_simulate $ Model_args.policy_term
          $ Model_args.params_term $ n $ horizon $ warmup $ runs $ seed
          $ service $ initial_load $ scheduler $ shards $ latency)

let scope_term =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-test fidelity.")
  in
  let paper =
    Arg.(value & flag
         & info [ "paper" ]
             ~doc:"The paper's full 10 x 100,000 s protocol (slow).")
  in
  let seed =
    Arg.(value & opt int 20260704 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Root random seed.")
  in
  let make quick paper seed =
    let base =
      if quick then Experiments.Scope.quick
      else if paper then Experiments.Scope.paper
      else Experiments.Scope.default
    in
    { base with Experiments.Scope.seed }
  in
  Term.(const make $ quick $ paper $ seed)

let run_experiment name scope =
  match Experiments.Registry.find name with
  | Some e ->
      e.Experiments.Registry.print scope Format.std_formatter;
      0
  | None ->
      Printf.eprintf "unknown experiment %S; try 'loadsteal_cli list'\n" name;
      2

let experiment_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME" ~doc:"Experiment name (see list).")
  in
  let doc = "Regenerate one of the paper's tables or analysis experiments." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const run_experiment $ name_arg $ scope_term)

let list_experiments () =
  List.iter
    (fun e ->
      Printf.printf "%-10s %s\n" e.Experiments.Registry.name
        e.Experiments.Registry.paper_ref)
    Experiments.Registry.all;
  0

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List available experiments.")
    Term.(const list_experiments $ const ())

let print_stability params horizon =
  let lambda = params.Model_args.lambda in
  let threshold = params.Model_args.threshold in
  let model = Meanfield.Threshold_ws.model ~lambda ~threshold () in
  let fixed_point =
    Meanfield.Threshold_ws.fixed_point_exact ~lambda ~threshold
      ~dim:model.Meanfield.Model.dim
  in
  let trace =
    Meanfield.Stability.distance_trace ~start:`Empty ~fixed_point ~horizon
      ~sample_every:(horizon /. 50.0) model
  in
  Printf.printf
    "lambda=%g T=%d pi2=%.4f (Theorem %s applies: pi2 < 1/2 is %b)\n" lambda
    threshold fixed_point.(2)
    (if threshold = 2 then "1" else "2")
    (fixed_point.(2) < 0.5);
  Printf.printf "# t  D(t) = sum_i |s_i(t) - pi_i|\n";
  List.iter (fun (t, d) -> Printf.printf "%10.3f  %.8f\n" t d) trace;
  Printf.printf "max uptick: %.3e\n" (Meanfield.Stability.max_uptick trace);
  0

let stability_cmd =
  let horizon =
    Arg.(value & opt float 200.0 & info [ "horizon" ] ~docv:"TIME"
         ~doc:"Trace horizon.")
  in
  let doc = "Print the L1 distance to the fixed point along a trajectory." in
  Cmd.v (Cmd.info "stability" ~doc)
    Term.(const print_stability $ Model_args.params_term $ horizon)

let print_check name params =
  let model = Model_args.build_model name params in
  let report = Meanfield.Selfcheck.run model in
  Format.printf "%a" Meanfield.Selfcheck.pp report;
  if Meanfield.Selfcheck.passed report then 0 else 1

let check_cmd =
  let doc =
    "Run generic diagnostics (fixed point, invariants, tail ratio) on a \
     model."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const print_check $ Model_args.model_term $ Model_args.params_term)

let print_drain initial_load stealing n runs seed =
  let dim = max 48 (4 * initial_load) in
  let model =
    Meanfield.Static_ws.model ~arrival:(fun _ -> 0.0) ~stealing
      ~initial_load ~dim ()
  in
  Printf.printf "static drain: load %d per processor, stealing %b\n"
    initial_load stealing;
  (match Meanfield.Static_ws.drain_time model with
  | Some t -> Printf.printf "fluid drain time:      %.3f\n" t
  | None -> print_endline "fluid drain time:      (horizon exceeded)");
  Printf.printf "fluid backlog integral: %.3f task-seconds/processor\n"
    (Meanfield.Static_ws.backlog_integral model);
  let summary =
    Wsim.Runner.replicate_static ~seed ~runs
      {
        Wsim.Cluster.default with
        n;
        arrival_rate = 0.0;
        initial_load;
        policy =
          (if stealing then Wsim.Policy.simple else Wsim.Policy.No_stealing);
      }
  in
  let acc = Prob.Stats.create () in
  Array.iter
    (fun (r : Wsim.Cluster.result) ->
      Prob.Stats.add acc r.Wsim.Cluster.makespan)
    summary.Wsim.Runner.per_run;
  Printf.printf "simulated makespan:     %.3f +/- %.3f (n=%d, %d runs)\n"
    (Prob.Stats.mean acc)
    (Prob.Stats.ci95_halfwidth acc)
    n runs;
  0

let drain_cmd =
  let initial_load =
    Arg.(value & opt int 10
         & info [ "load" ] ~docv:"L" ~doc:"Initial tasks per processor.")
  in
  let stealing =
    Arg.(value & opt bool true
         & info [ "stealing" ] ~docv:"BOOL" ~doc:"Enable work stealing.")
  in
  let n =
    Arg.(value & opt int 64
         & info [ "procs"; "n" ] ~docv:"N" ~doc:"Simulated processors.")
  in
  let runs =
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"K" ~doc:"Replications.")
  in
  let seed =
    Arg.(value & opt int 20260704 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed.")
  in
  let doc = "Analyse a static (batch drain) system, fluid and simulated." in
  Cmd.v (Cmd.info "drain" ~doc)
    Term.(const print_drain $ initial_load $ stealing $ n $ runs $ seed)

let main_cmd =
  let doc =
    "Mean-field analysis and simulation of randomized work stealing \
     (Mitzenmacher, SPAA 1998)."
  in
  Cmd.group
    (Cmd.info "loadsteal_cli" ~version:"1.0.0" ~doc)
    [
      fixed_point_cmd; trajectory_cmd; simulate_cmd;
      experiment_cmd;
      list_cmd; stability_cmd; check_cmd; drain_cmd;
    ]

(* Malformed input reaches the library's validators, which raise
   Invalid_argument (a run that cannot finish raises Failure): report it
   as one line with cmdliner's "some error" exit code. Anything else is
   a bug and keeps cmdliner's internal-error report. *)
let () =
  match Cmd.eval' ~catch:false main_cmd with
  | code -> exit code
  | exception (Invalid_argument reason | Failure reason) ->
      Printf.eprintf "loadsteal_cli: %s\n%!" reason;
      exit Cmd.Exit.some_error
  | exception e ->
      Printf.eprintf "loadsteal_cli: internal error, uncaught exception: %s\n%!"
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error
