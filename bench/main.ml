(* Benchmark harness: regenerates every table of the paper (plus the E5-E14
   studies implied by its analysis sections), times the computational
   kernels behind each table with Bechamel, and checks the parallel
   execution layer against the serial reference.

   Usage:
     main.exe                      run every experiment at default fidelity
     main.exe table1 table3 ...    run selected experiments
     main.exe --quick / --paper    fidelity presets
     main.exe --seed N             override root seed
     main.exe --domains N          domains for simulation maps (1 = serial)
     main.exe kernels              Bechamel micro-benchmarks, one per table
     main.exe kernels --json F     also write OLS estimates to F as JSON
     main.exe speedup              serial vs parallel replicate, Table 4 load
     main.exe meanfield            fixed-point solver cost: seed RK4 path vs
                                   adaptive+Newton with lambda-continuation
     main.exe meanfield --json F   also write evals/wall-time metrics to F
     main.exe meanfield-batch      lockstep multi-lambda solves vs K scalar
                                   solves: stepper-sweep overhead ratio,
                                   wall clock and minor words per eval
     main.exe meanfield-batch --json F
                                   also write the meanfield_batch/* metrics
     main.exe hotpath              events/sec + minor-words/event kernels
     main.exe hotpath --json F     also write the two metrics to F as JSON
     main.exe scaling              events/sec vs n, heap vs calendar queue
     main.exe scaling --sizes 64,1024 --json F
                                   restrict the n-sweep / write JSON
     main.exe sharding             events/sec at 1/2/4 shards, plus one
                                   n = 1e7 run (skipped under --quick)

   The repository's performance ledger is perfbench/ + BENCHMARK.json;
   these kernels are tools, and the CI perf-smoke job hard-gates their
   deterministic counters (derivative-evaluation ratios).
*)

let usage () =
  print_endline
    "usage: main.exe [kernels] [speedup] [hotpath] [meanfield] \
     [meanfield-batch] [scaling]\n\
    \       [sharding] [experiment ...]\n\
    \       [--quick|--paper] [--seed N] [--domains N] [--json FILE]\n\
    \       [--sizes N,N,...]";
  print_endline "experiments:";
  List.iter
    (fun e ->
      Printf.printf "  %-10s %s\n" e.Experiments.Registry.name
        e.Experiments.Registry.paper_ref)
    Experiments.Registry.all

(* ---------- option parsing ---------- *)

type options = {
  quick : bool;
  paper : bool;
  seed : int option;
  domains : int option;
  json : string option;
  kernels : bool;
  speedup : bool;
  hotpath : bool;
  meanfield : bool;
  meanfield_batch : bool;
  scaling : bool;
  sharding : bool;
  sizes : int list option;
  help : bool;
  names : string list;  (* experiment names, in command-line order *)
}

let default_options =
  {
    quick = false;
    paper = false;
    seed = None;
    domains = None;
    json = None;
    kernels = false;
    speedup = false;
    hotpath = false;
    meanfield = false;
    meanfield_batch = false;
    scaling = false;
    sharding = false;
    sizes = None;
    help = false;
    names = [];
  }

let is_flag a = String.length a >= 2 && String.sub a 0 2 = "--"

let flag_value flag convert check = function
  | [] ->
      Printf.eprintf "%s needs a value\n" flag;
      exit 2
  | v :: rest -> (
      match convert v with
      | Some x when check x -> (x, rest)
      | _ ->
          Printf.eprintf "invalid value %S for %s\n" v flag;
          exit 2)

let parse_options args =
  let rec go opts = function
    | [] -> opts
    | "--quick" :: rest -> go { opts with quick = true } rest
    | "--paper" :: rest -> go { opts with paper = true } rest
    | "--seed" :: rest ->
        let seed, rest =
          flag_value "--seed" int_of_string_opt (fun _ -> true) rest
        in
        go { opts with seed = Some seed } rest
    | "--domains" :: rest ->
        let domains, rest =
          flag_value "--domains" int_of_string_opt (fun d -> d >= 1) rest
        in
        go { opts with domains = Some domains } rest
    | "--json" :: rest ->
        let json, rest =
          flag_value "--json" Option.some (fun f -> f <> "") rest
        in
        go { opts with json = Some json } rest
    | "--sizes" :: rest ->
        let sizes, rest =
          flag_value "--sizes"
            (fun v ->
              let parts = String.split_on_char ',' v in
              let ints = List.filter_map int_of_string_opt parts in
              if List.length ints = List.length parts then Some ints else None)
            (fun l -> l <> [] && List.for_all (fun n -> n >= 2) l)
            rest
        in
        go { opts with sizes = Some sizes } rest
    | ("--help" | "-h") :: rest | "help" :: rest ->
        go { opts with help = true } rest
    | a :: _ when is_flag a ->
        Printf.eprintf "unknown flag %s\n" a;
        exit 2
    | "kernels" :: rest -> go { opts with kernels = true } rest
    | "speedup" :: rest -> go { opts with speedup = true } rest
    | "hotpath" :: rest -> go { opts with hotpath = true } rest
    | "meanfield" :: rest -> go { opts with meanfield = true } rest
    | "meanfield-batch" :: rest -> go { opts with meanfield_batch = true } rest
    | "scaling" :: rest -> go { opts with scaling = true } rest
    | "sharding" :: rest -> go { opts with sharding = true } rest
    | name :: rest -> go { opts with names = opts.names @ [ name ] } rest
  in
  go default_options args

(* ---------- Bechamel kernels ---------- *)

let kernel_tests () =
  let open Bechamel in
  (* Table 1 kernel: the closed-form fixed point plus an ODE relaxation of
     the simple system at moderate truncation. *)
  let table1 =
    Test.make ~name:"table1/simple-fixed-point"
      (Staged.stage (fun () ->
           let m = Meanfield.Simple_ws.model ~lambda:0.7 ~dim:64 () in
           let fp = Meanfield.Drive.fixed_point ~tol:1e-9 m in
           ignore (Meanfield.Model.mean_time m fp.Meanfield.Drive.state)))
  in
  (* Table 2 kernel: one derivative evaluation of the c = 20 stage system
     (the dominating cost of the constant-service estimates). *)
  let table2 =
    let m = Meanfield.Erlang_ws.model ~lambda:0.9 ~stages:20 () in
    let y = m.Meanfield.Model.initial_warm () in
    let dy = Array.make m.Meanfield.Model.dim 0.0 in
    Test.make ~name:"table2/erlang-c20-deriv"
      (Staged.stage (fun () -> m.Meanfield.Model.deriv ~y ~dy))
  in
  (* Table 3 kernel: derivative of the two-vector transfer system. *)
  let table3 =
    let m =
      Meanfield.Transfer_ws.model ~lambda:0.9 ~transfer_rate:0.25
        ~threshold:4 ()
    in
    let y = m.Meanfield.Model.initial_warm () in
    let dy = Array.make m.Meanfield.Model.dim 0.0 in
    Test.make ~name:"table3/transfer-deriv"
      (Staged.stage (fun () -> m.Meanfield.Model.deriv ~y ~dy))
  in
  (* Table 4 kernel: a simulation slice of the two-choice system — the
     simulation side dominates Table 4's cost. *)
  let table4 =
    Test.make ~name:"table4/sim-2choice-slice"
      (Staged.stage
         (let counter = ref 0 in
          fun () ->
            incr counter;
            let rng = Prob.Rng.create ~seed:(0x7ab1e4 + !counter) in
            let sim =
              Wsim.Cluster.create ~rng
                {
                  Wsim.Cluster.default with
                  n = 16;
                  arrival_rate = 0.9;
                  policy =
                    Wsim.Policy.On_empty
                      { threshold = 2; choices = 2; steal_count = 1 };
                }
            in
            ignore (Wsim.Cluster.run sim ~horizon:50.0 ~warmup:0.0)))
  in
  (* Parallel kernel: fan eight short simulation slices over the default
     pool — dispatch overhead plus whatever speedup the domains give. *)
  let pool_map =
    let pool = Parallel.Pool.default () in
    let seeds = Array.init 8 (fun i -> 0x900 + i) in
    Test.make ~name:"parallel/pool-map"
      (Staged.stage (fun () ->
           ignore
             (Parallel.Pool.map_array pool
                (fun seed ->
                  let rng = Prob.Rng.create ~seed in
                  let sim =
                    Wsim.Cluster.create ~rng
                      {
                        Wsim.Cluster.default with
                        n = 16;
                        arrival_rate = 0.9;
                        policy = Wsim.Policy.simple;
                      }
                  in
                  ignore (Wsim.Cluster.run sim ~horizon:25.0 ~warmup:0.0))
                seeds)))
  in
  (* Substrate kernels. *)
  let rk4 =
    let sys =
      Meanfield.Model.as_system
        (Meanfield.Simple_ws.model ~lambda:0.9 ~dim:256 ())
    in
    let ws = Numerics.Ode.workspace sys in
    let y = Meanfield.Tail.geometric ~dim:256 ~ratio:0.9 ~mass:1.0 in
    Test.make ~name:"substrate/rk4-step-dim256"
      (Staged.stage (fun () ->
           Numerics.Ode.rk4_step sys ws ~t:0.0 ~dt:0.1 y))
  in
  let rng_test =
    let rng = Prob.Rng.create ~seed:1 in
    Test.make ~name:"substrate/rng-exponential"
      (Staged.stage (fun () ->
           ignore (Prob.Dist.exponential rng ~rate:1.0)))
  in
  [ table1; table2; table3; table4; pool_map; rk4; rng_test ]

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Flat object: kernel name -> ns/run, plus run metadata, so two
   captures diff cleanly. *)
let write_kernels_json ~file ~domains ~wall_seconds rows =
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"domains\": %d,\n  \"wall_seconds\": %.3f"
    domains wall_seconds;
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then
        Printf.fprintf oc ",\n  \"%s\": null" (json_escape name)
      else Printf.fprintf oc ",\n  \"%s\": %.1f" (json_escape name) est)
    rows;
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" file

let run_kernels ~json () =
  let open Bechamel in
  let t0 = Unix.gettimeofday () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let tests =
    Test.make_grouped ~name:"loadsteal" ~fmt:"%s %s" (kernel_tests ())
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  (* Plain-text report: OLS estimate of ns/run for the monotonic clock. *)
  print_endline "kernel benchmarks (ns per run, OLS fit):";
  let rows =
    match
      Hashtbl.find_opt results
        (Measure.label Toolkit.Instance.monotonic_clock)
    with
    | None -> []
    | Some by_test ->
        Hashtbl.fold
          (fun name ols acc ->
            let est =
              match Analyze.OLS.estimates ols with
              | Some (x :: _) -> x
              | Some [] | None -> nan
            in
            (name, est) :: acc)
          by_test []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if List.is_empty rows then print_endline "  (no results)"
  else
    List.iter
      (fun (name, est) -> Printf.printf "  %-40s %14.1f\n" name est)
      rows;
  Option.iter
    (fun file ->
      write_kernels_json ~file
        ~domains:(Parallel.Pool.domains (Parallel.Pool.default ()))
        ~wall_seconds:(Unix.gettimeofday () -. t0)
        rows)
    json

(* ---------- hot-path kernels ---------- *)

(* Steady-state dispatch metrics of the simulator loop on the paper's
   base system (exponential service, simple stealing): events/sec and
   minor-heap words/event, measured with Gc counters over an [advance]
   window rather than Bechamel — the denominator is the engine's own
   dispatch count, and the allocation rate is a correctness property
   (the loop is designed to allocate nothing), not just a speed one.

   Numbers are only meaningful from a release-profile build: the dev
   profile disables cross-module inlining, which reintroduces float
   boxing on the hot path. *)
let run_hotpath ~json () =
  let cfg =
    {
      Wsim.Cluster.default with
      n = 64;
      arrival_rate = 0.9;
      policy = Wsim.Policy.simple;
    }
  in
  print_endline
    "hotpath kernels (n=64, lambda=0.9, simple stealing, exponential):";
  let best_eps = ref 0.0 and best_words = ref infinity in
  for rep = 1 to 3 do
    let rng = Prob.Rng.create ~seed:(100 + rep) in
    let sim = Wsim.Cluster.create ~rng cfg in
    (* warm the system into steady state before opening the window *)
    Wsim.Cluster.advance sim ~until:2_000.0;
    let e0 = Wsim.Cluster.events_dispatched sim in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Wsim.Cluster.advance sim ~until:22_000.0;
    let dt = Unix.gettimeofday () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    let de = Wsim.Cluster.events_dispatched sim - e0 in
    let eps = float_of_int de /. dt in
    let words = dw /. float_of_int de in
    if eps > !best_eps then best_eps := eps;
    if words < !best_words then best_words := words;
    Printf.printf
      "  rep%d: %9d events  %6.3f s  %9.0f events/sec  %6.3f words/event\n"
      rep de dt eps words
  done;
  Printf.printf "  best: %.0f events/sec, %.3f minor-words/event\n" !best_eps
    !best_words;
  Option.iter
    (fun file ->
      let oc = open_out file in
      Printf.fprintf oc
        "{\n\
        \  \"events_per_sec\": %.0f,\n\
        \  \"minor_words_per_event\": %.3f\n\
         }\n"
        !best_eps !best_words;
      close_out oc;
      Printf.printf "wrote %s\n" file)
    json

(* ---------- mean-field solver kernels ---------- *)

(* Derivative evaluations and wall time to converge the Table 1 / Table 2
   fixed-point sweeps over the paper's lambda grid. "seed" is the
   original solver path: an independent fixed-step RK4 relaxation per lambda
   at that lambda's default truncation. "new" is the current default:
   adaptive RK45 relaxation + the Newton corrector, warm-started along the
   sweep by lambda-continuation (dimension pinned across the chain). The
   Table 2 evals ratio is deterministic, and CI's perf-smoke job fails
   when it drops below its recorded 48.55. *)
let meanfield_case ~name ~seed_build ~cont_build lambdas =
  let t0 = Unix.gettimeofday () in
  let seed_evals =
    List.fold_left
      (fun acc lambda ->
        let fp =
          Meanfield.Drive.fixed_point ~solver:`Rk4 (seed_build lambda)
        in
        acc + fp.Meanfield.Drive.evals)
      0 lambdas
  in
  let t1 = Unix.gettimeofday () in
  let chain = Meanfield.Continuation.along_lambda ~build:cont_build lambdas in
  let t2 = Unix.gettimeofday () in
  let new_evals = Meanfield.Continuation.total_evals chain in
  let converged =
    List.for_all (fun (_, fp) -> fp.Meanfield.Drive.converged) chain
  in
  let ratio = float_of_int seed_evals /. float_of_int new_evals in
  Printf.printf
    "  %-18s seed %9d evals %6.2f s   new %8d evals %6.2f s   %5.1fx%s\n%!"
    name seed_evals (t1 -. t0) new_evals (t2 -. t1) ratio
    (if converged then "" else "  NOT CONVERGED");
  (name, seed_evals, t1 -. t0, new_evals, t2 -. t1, ratio)

let run_meanfield ~json () =
  print_endline
    "meanfield solver kernels (fixed-point sweeps over the paper's lambda \
     grid;\n\
    \ seed = per-lambda fixed-step RK4, new = adaptive+Newton with \
     lambda-continuation):";
  let lambdas = Experiments.Paper_values.table1_lambdas in
  let dim = Meanfield.Continuation.pinned_dim lambdas in
  (* sequenced lets: list elements would evaluate (and print) in
     right-to-left order otherwise *)
  let simple =
    meanfield_case ~name:"table1/simple"
      ~seed_build:(fun lambda -> Meanfield.Simple_ws.model ~lambda ())
      ~cont_build:(fun lambda -> Meanfield.Simple_ws.model ~lambda ~dim ())
      lambdas
  in
  let c10 =
    meanfield_case ~name:"table2/erlang-c10"
      ~seed_build:(fun lambda -> Meanfield.Erlang_ws.model ~lambda ~stages:10 ())
      ~cont_build:(fun lambda ->
        Meanfield.Erlang_ws.model ~lambda ~stages:10 ~task_depth:60 ())
      lambdas
  in
  let c20 =
    meanfield_case ~name:"table2/erlang-c20"
      ~seed_build:(fun lambda -> Meanfield.Erlang_ws.model ~lambda ~stages:20 ())
      ~cont_build:(fun lambda ->
        Meanfield.Erlang_ws.model ~lambda ~stages:20 ~task_depth:60 ())
      lambdas
  in
  let rows = [ simple; c10; c20 ] in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let t2_seed =
    sum (fun (n, s, _, _, _, _) ->
        if String.length n >= 6 && String.sub n 0 6 = "table2" then s else 0)
  in
  let t2_new =
    sum (fun (n, _, _, v, _, _) ->
        if String.length n >= 6 && String.sub n 0 6 = "table2" then v else 0)
  in
  let t2_ratio = float_of_int t2_seed /. float_of_int t2_new in
  Printf.printf "  table2 sweep total: %d -> %d evals, %.1fx fewer\n" t2_seed
    t2_new t2_ratio;
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc "{";
      List.iteri
        (fun i (name, seed_evals, seed_s, new_evals, new_s, ratio) ->
          Printf.fprintf oc
            "%s\n\
            \  \"meanfield/%s/seed_evals\": %d,\n\
            \  \"meanfield/%s/seed_seconds\": %.3f,\n\
            \  \"meanfield/%s/new_evals\": %d,\n\
            \  \"meanfield/%s/new_seconds\": %.3f,\n\
            \  \"meanfield/%s/evals_ratio\": %.2f"
            (if i = 0 then "" else ",")
            name seed_evals name seed_s name new_evals name new_s name ratio)
        rows;
      Printf.fprintf oc
        ",\n  \"meanfield/table2_sweep_evals_ratio\": %.2f\n}\n" t2_ratio;
      close_out oc;
      Printf.printf "wrote %s\n" file)
    json

(* ---------- batched mean-field kernels ---------- *)

(* Lockstep batched solves vs K independent scalar solves on the same
   λ grid. The batch's cost unit is the SoA sweep
   ([Drive.batch_stats.rounds]): one serves every then-active column,
   where a scalar solve pays one derivative call per attempted step.
   The rounds are deterministic, and CI caps each grid's at its
   recorded value; overhead_ratio = scalar evals / batched rounds
   compares the two paths (near 1.7 since the scalar solver finishes
   with the Newton corrector). Per-column results are residual-
   certified against the scalar tolerance, so neither side trades
   accuracy for speed.

   Sweeps are not cost: each side also reports its wall clock and its
   minor-heap words per derivative eval (models are built outside both
   windows). The words are deterministic in a release build, and CI
   fails a grid whose batch allocates more per eval than its scalar
   solves; the seconds are printed for comparison and gate nothing. *)
let meanfield_batch_case ~name ~tol ~build ~build_batch lambdas =
  let grid = Array.of_list lambdas in
  let k = Array.length grid in
  let models = Array.map build grid in
  let batch_models = build_batch grid in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let scalar_evals =
    Array.fold_left
      (fun acc m ->
        let fp = Meanfield.Drive.fixed_point ~tol m in
        if not fp.Meanfield.Drive.converged then
          failwith (name ^ ": scalar solve did not converge");
        acc + fp.Meanfield.Drive.evals)
      0 models
  in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let fps, stats = Meanfield.Drive.fixed_point_batch ~tol batch_models in
  let t2 = Unix.gettimeofday () in
  let w2 = Gc.minor_words () in
  Array.iter
    (fun fp ->
      if not fp.Meanfield.Drive.converged then
        failwith (name ^ ": batched solve did not converge");
      if fp.Meanfield.Drive.residual > tol then
        failwith (name ^ ": batched residual above tolerance"))
    fps;
  let batch_evals =
    Array.fold_left (fun acc fp -> acc + fp.Meanfield.Drive.evals) 0 fps
  in
  let rounds = stats.Meanfield.Drive.rounds in
  let ratio = float_of_int scalar_evals /. float_of_int (max 1 rounds) in
  let scalar_wpe = (w1 -. w0) /. float_of_int (max 1 scalar_evals) in
  let batch_wpe = (w2 -. w1) /. float_of_int (max 1 batch_evals) in
  Printf.printf
    "  %-18s K=%-3d scalar %8d evals %6.2f s %7.1f w/eval   batch %6d \
     rounds (%8d col-evals) %6.2f s %7.1f w/eval   %5.1fx%s\n\
     %!"
    name k scalar_evals (t1 -. t0) scalar_wpe rounds batch_evals (t2 -. t1)
    batch_wpe ratio
    (if stats.Meanfield.Drive.hand_batched then "" else "  [bridge]");
  ( name,
    [
      (Printf.sprintf "meanfield_batch/%s/scalar_evals" name,
       float_of_int scalar_evals);
      (Printf.sprintf "meanfield_batch/%s/rounds" name, float_of_int rounds);
      (Printf.sprintf "meanfield_batch/%s/col_evals" name,
       float_of_int batch_evals);
      (Printf.sprintf "meanfield_batch/%s/overhead_ratio" name, ratio);
      (Printf.sprintf "meanfield_batch/%s/scalar_seconds" name, t1 -. t0);
      (Printf.sprintf "meanfield_batch/%s/batch_seconds" name, t2 -. t1);
      (Printf.sprintf "meanfield_batch/%s/scalar_minor_words_per_eval" name,
       scalar_wpe);
      (Printf.sprintf "meanfield_batch/%s/batch_minor_words_per_eval" name,
       batch_wpe);
    ],
    (scalar_evals, rounds) )

let meanfield_batch_measure () =
  let tol = 1e-9 in
  let lambdas = Experiments.Paper_values.table1_lambdas in
  let c10 =
    meanfield_batch_case ~name:"table2/erlang-c10" ~tol
      ~build:(fun lambda ->
        Meanfield.Erlang_ws.model ~lambda ~stages:10 ~task_depth:60 ())
      ~build_batch:(fun grid ->
        Meanfield.Erlang_ws.batch ~lambdas:grid ~stages:10 ~task_depth:60 ())
      lambdas
  in
  let c20 =
    meanfield_batch_case ~name:"table2/erlang-c20" ~tol
      ~build:(fun lambda ->
        Meanfield.Erlang_ws.model ~lambda ~stages:20 ~task_depth:60 ())
      ~build_batch:(fun grid ->
        Meanfield.Erlang_ws.batch ~lambdas:grid ~stages:20 ~task_depth:60 ())
      lambdas
  in
  let simple =
    meanfield_batch_case ~name:"table1/simple" ~tol
      ~build:(fun lambda ->
        Meanfield.Simple_ws.model ~lambda
          ~dim:(Meanfield.Continuation.pinned_dim lambdas)
          ())
      ~build_batch:(fun grid ->
        Meanfield.Simple_ws.batch ~lambdas:grid
          ~dim:(Meanfield.Continuation.pinned_dim lambdas)
          ())
      lambdas
  in
  let rows = [ c10; c20; simple ] in
  let t2_scalar, t2_rounds =
    List.fold_left
      (fun (s, r) (name, _, (scalar, rounds)) ->
        if String.length name >= 6 && String.sub name 0 6 = "table2" then
          (s + scalar, r + rounds)
        else (s, r))
      (0, 0) rows
  in
  let t2_ratio = float_of_int t2_scalar /. float_of_int (max 1 t2_rounds) in
  Printf.printf
    "  table2 grid total: %d scalar evals vs %d batched rounds, %.1fx fewer \
     stepper sweeps\n"
    t2_scalar t2_rounds t2_ratio;
  List.concat_map (fun (_, metrics, _) -> metrics) rows
  @ [ ("meanfield_batch/table2_overhead_ratio", t2_ratio) ]

let run_meanfield_batch ~json () =
  print_endline
    "batched meanfield kernels (lockstep multi-λ solves vs K independent \
     scalar solves;\n\
    \ overhead_ratio = scalar deriv evals / batched SoA sweeps, \
     residual-certified):";
  let metrics = meanfield_batch_measure () in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc "{";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s\n  \"%s\": %.6g"
            (if i = 0 then "" else ",")
            k v)
        metrics;
      output_string oc "\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" file)
    json

(* ---------- scaling kernels ---------- *)

(* Dispatch throughput as a function of system size, heap vs calendar
   queue. The binary heap pays O(log n) per event once the pending set
   holds ~n timers; the calendar queue's O(1) buckets are what make the
   n >= 1e5 regime affordable. Both schedulers dispatch the identical
   event sequence, so the ratio is pure scheduler cost. *)
let default_scaling_sizes = [ 64; 1024; 16384; 131072 ]

let scaling_measure ~scheduler ~n =
  let cfg =
    {
      Wsim.Cluster.default with
      n;
      arrival_rate = 0.9;
      policy = Wsim.Policy.simple;
      scheduler;
    }
  in
  (* the simple system at lambda = 0.9 dispatches ~1.8n events per
     simulated time unit; size the window for ~3M events so every n
     gets a comparable measurement *)
  let window = 3_000_000.0 /. (1.8 *. float_of_int n) in
  let best = ref 0.0 in
  for rep = 1 to 2 do
    let rng = Prob.Rng.create ~seed:(200 + rep) in
    let sim = Wsim.Cluster.create ~rng cfg in
    Wsim.Cluster.advance sim ~until:30.0;
    let e0 = Wsim.Cluster.events_dispatched sim in
    let t0 = Unix.gettimeofday () in
    Wsim.Cluster.advance sim ~until:(30.0 +. window);
    let dt = Unix.gettimeofday () -. t0 in
    let de = Wsim.Cluster.events_dispatched sim - e0 in
    let eps = float_of_int de /. dt in
    if eps > !best then best := eps
  done;
  !best

let run_scaling ~sizes ~json () =
  let sizes = Option.value sizes ~default:default_scaling_sizes in
  print_endline
    "scaling kernels (lambda=0.9, simple stealing; best of 2 reps over a \
     ~3M-event window):";
  let rows =
    List.map
      (fun n ->
        let heap = scaling_measure ~scheduler:Wsim.Cluster.Heap ~n in
        let calendar = scaling_measure ~scheduler:Wsim.Cluster.Calendar ~n in
        Printf.printf
          "  n=%-7d heap %10.0f ev/s   calendar %10.0f ev/s   ratio %5.2fx\n%!"
          n heap calendar (calendar /. heap);
        (n, heap, calendar))
      sizes
  in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc "{";
      List.iteri
        (fun i (n, heap, calendar) ->
          Printf.fprintf oc
            "%s\n\
            \  \"scaling/n%d/heap_events_per_sec\": %.0f,\n\
            \  \"scaling/n%d/calendar_events_per_sec\": %.0f"
            (if i = 0 then "" else ",")
            n heap n calendar)
        rows;
      output_string oc "\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" file)
    json

(* ---------- sharding kernels ---------- *)

(* Dispatch throughput of the sharded simulator at a fixed shard count.
   On a single-core host the shards time-slice one domain, so shards > 1
   measures the conservative-window overhead rather than a speedup;
   given real cores the same kernel exposes the parallel scaling. *)
let sharding_latency = 0.5

let sharding_config n =
  {
    Wsim.Cluster.default with
    n;
    arrival_rate = 0.9;
    policy = Wsim.Policy.simple;
    scheduler = Wsim.Cluster.Calendar;
  }

let sharding_measure ~n ~shards =
  (* ~3M dispatched events per measurement, as in the scaling sweep *)
  let window = 3_000_000.0 /. (1.8 *. float_of_int n) in
  let best = ref 0.0 in
  for rep = 1 to 2 do
    let rng = Prob.Rng.create ~seed:(300 + rep) in
    let sim =
      Wsim.Shard.create ~rng
        {
          Wsim.Shard.cluster = sharding_config n;
          shards;
          latency = sharding_latency;
        }
    in
    let t0 = Unix.gettimeofday () in
    ignore (Wsim.Shard.run sim ~horizon:window ~warmup:0.0);
    let dt = Unix.gettimeofday () -. t0 in
    let eps = float_of_int (Wsim.Shard.events_dispatched sim) /. dt in
    if eps > !best then best := eps
  done;
  !best

let default_sharding_sizes = [ 65536 ]
let sharding_shard_counts = [ 1; 2; 4 ]

let run_sharding ~quick ~sizes ~json () =
  let sizes = Option.value sizes ~default:default_sharding_sizes in
  Printf.printf
    "sharding kernels (lambda=0.9, simple stealing, calendar queue, latency \
     %g; best of 2 reps over a ~3M-event window):\n"
    sharding_latency;
  let rows =
    List.concat_map
      (fun n ->
        let per_shards =
          List.map
            (fun s ->
              let eps = sharding_measure ~n ~shards:s in
              Printf.printf "  n=%-8d shards=%d %10.0f ev/s\n%!" n s eps;
              (n, s, eps))
            sharding_shard_counts
        in
        (match (per_shards, List.rev per_shards) with
        | (_, _, base) :: _, (_, smax, top) :: _ ->
            Printf.printf "  n=%-8d %d-shard vs 1-shard: %.2fx\n%!" n smax
              (top /. base)
        | _ -> ());
        per_shards)
      sizes
  in
  (* the headline capacity point: one n = 1e7 run to completion *)
  let big =
    if quick then None
    else begin
      let n = 10_000_000 and shards = 4 in
      let rng = Prob.Rng.create ~seed:301 in
      let sim =
        Wsim.Shard.create ~rng
          {
            Wsim.Shard.cluster = sharding_config n;
            shards;
            latency = sharding_latency;
          }
      in
      let t0 = Unix.gettimeofday () in
      let result = Wsim.Shard.run sim ~horizon:1.0 ~warmup:0.0 in
      let dt = Unix.gettimeofday () -. t0 in
      let events = Wsim.Shard.events_dispatched sim in
      Printf.printf
        "  n=%d shards=%d horizon=1.0: %d events in %.1f s (%.0f ev/s), \
         E[load] %.3f\n\
         %!"
        n shards events dt
        (float_of_int events /. dt)
        result.Wsim.Cluster.mean_load;
      Some (n, shards, events, dt)
    end
  in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc "{";
      List.iteri
        (fun i (n, s, eps) ->
          Printf.fprintf oc "%s\n  \"sharding/n%d/s%d_events_per_sec\": %.0f"
            (if i = 0 then "" else ",")
            n s eps)
        rows;
      Option.iter
        (fun (n, s, events, dt) ->
          Printf.fprintf oc
            ",\n\
            \  \"sharding/n%d/s%d_events\": %d,\n\
            \  \"sharding/n%d/s%d_seconds\": %.1f"
            n s events n s dt)
        big;
      output_string oc "\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" file)
    json

(* ---------- speedup check ---------- *)

(* Serial vs parallel replication of the Table 4 simulation workload:
   same seed, same configs, a pool of 1 vs the default pool. The two
   summaries must agree bit-for-bit; the wall-time ratio is the layer's
   measured speedup on this machine. *)
let run_speedup (scope : Experiments.Scope.t) =
  let domains = Parallel.Pool.domains (Parallel.Pool.default ()) in
  let fidelity =
    (* enough replicas that every domain gets work *)
    let f = scope.Experiments.Scope.fidelity in
    { f with Wsim.Runner.runs = max f.Wsim.Runner.runs (2 * domains) }
  in
  let config =
    {
      Wsim.Cluster.default with
      n = List.fold_left max 2 scope.Experiments.Scope.ns;
      arrival_rate = 0.95;
      policy =
        Wsim.Policy.On_empty { threshold = 2; choices = 2; steal_count = 1 };
    }
  in
  let time pool =
    let t0 = Unix.gettimeofday () in
    let summary =
      Wsim.Runner.replicate ~pool ~seed:scope.Experiments.Scope.seed
        ~fidelity config
    in
    (summary, Unix.gettimeofday () -. t0)
  in
  Printf.printf
    "speedup check: Table 4 workload (n=%d, lambda=0.95, 2 choices), %d \
     runs x %g s\n"
    config.Wsim.Cluster.n fidelity.Wsim.Runner.runs
    fidelity.Wsim.Runner.horizon;
  let serial_pool = Parallel.Pool.create ~domains:1 in
  let serial, t_serial = time serial_pool in
  Parallel.Pool.shutdown serial_pool;
  let parallel, t_parallel = time (Parallel.Pool.default ()) in
  (* Float.equal, not (=): both runs can legitimately report [nan]
     statistics (see Runner), and bit-identical nan should still count
     as identical. *)
  let identical =
    Float.equal serial.Wsim.Runner.mean_sojourn
      parallel.Wsim.Runner.mean_sojourn
    && Float.equal serial.Wsim.Runner.sojourn_ci95
         parallel.Wsim.Runner.sojourn_ci95
    && Float.equal serial.Wsim.Runner.mean_load parallel.Wsim.Runner.mean_load
    && Float.equal serial.Wsim.Runner.steal_success_rate
         parallel.Wsim.Runner.steal_success_rate
  in
  Printf.printf "  serial (1 domain):      %8.2f s   E[T] = %.6f\n" t_serial
    serial.Wsim.Runner.mean_sojourn;
  Printf.printf "  parallel (%d domains):   %8.2f s   E[T] = %.6f\n" domains
    t_parallel parallel.Wsim.Runner.mean_sojourn;
  Printf.printf "  speedup: %.2fx   summaries bit-identical: %b\n"
    (t_serial /. t_parallel) identical;
  if not identical then begin
    prerr_endline "speedup check FAILED: serial and parallel summaries differ";
    exit 1
  end

(* ---------- driver ---------- *)

let () =
  let opts = parse_options (List.tl (Array.to_list Sys.argv)) in
  if opts.help then usage ()
  else begin
    let domains =
      match opts.domains with
      | Some d -> d
      | None -> Domain.recommended_domain_count ()
    in
    Parallel.Pool.set_default_domains domains;
    let scope =
      let base =
        if opts.quick then Experiments.Scope.quick
        else if opts.paper then Experiments.Scope.paper
        else Experiments.Scope.default
      in
      match opts.seed with
      | Some s -> { base with Experiments.Scope.seed = s }
      | None -> base
    in
    let ppf = Format.std_formatter in
    let t0 = Unix.gettimeofday () in
    let experiments =
      match opts.names with
      | []
        when opts.kernels || opts.speedup || opts.hotpath || opts.meanfield
             || opts.meanfield_batch || opts.scaling || opts.sharding ->
          []
      | [] -> Experiments.Registry.all
      | names ->
          List.map
            (fun name ->
              match Experiments.Registry.find name with
              | Some e -> e
              | None ->
                  Format.fprintf ppf "unknown experiment %S@." name;
                  usage ();
                  exit 2)
            names
    in
    if experiments <> [] then
      Format.fprintf ppf "running with %d domain%s@.@." domains
        (if domains = 1 then "" else "s");
    List.iter
      (fun e ->
        Format.fprintf ppf "=== %s — %s ===@.@." e.Experiments.Registry.name
          e.Experiments.Registry.paper_ref;
        let te = Unix.gettimeofday () in
        e.Experiments.Registry.print scope ppf;
        Format.fprintf ppf "[%s: %.1f s]@.@." e.Experiments.Registry.name
          (Unix.gettimeofday () -. te))
      experiments;
    if opts.speedup then run_speedup scope;
    if opts.kernels then run_kernels ~json:opts.json ();
    if opts.hotpath then run_hotpath ~json:opts.json ();
    if opts.meanfield then run_meanfield ~json:opts.json ();
    if opts.meanfield_batch then run_meanfield_batch ~json:opts.json ();
    if opts.scaling then run_scaling ~sizes:opts.sizes ~json:opts.json ();
    if opts.sharding then
      run_sharding ~quick:opts.quick ~sizes:opts.sizes ~json:opts.json ();
    Format.fprintf ppf "total wall time: %.1f s@."
      (Unix.gettimeofday () -. t0)
  end
