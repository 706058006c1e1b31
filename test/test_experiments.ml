(* Tests for the experiment harness: registry wiring, embedded paper
   values, table formatting, and (at tiny fidelity) that the experiment
   computations produce sane rows. *)

let check_close eps = Alcotest.(check (float eps))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let tiny_scope =
  {
    Experiments.Scope.fidelity =
      { Wsim.Runner.runs = 1; horizon = 800.0; warmup = 100.0 };
    ns = [ 8 ];
    seed = 99;
    verbose = false;
  }

(* ---------- registry ---------- *)

let test_registry_complete () =
  let names =
    List.map (fun e -> e.Experiments.Registry.name) Experiments.Registry.all
  in
  Alcotest.(check (list string))
    "all experiments present"
    [ "table1"; "table2"; "table3"; "table4"; "threshold"; "repeated";
      "multisteal"; "hetero"; "stability"; "sharing"; "ablation"; "batch";
      "locality"; "transient"; "convergence" ]
    names

let test_registry_find () =
  (match Experiments.Registry.find "TABLE1" with
  | Some e -> Alcotest.(check string) "case-insensitive" "table1"
                e.Experiments.Registry.name
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "unknown" true
    (Experiments.Registry.find "nope" = None)

(* ---------- paper values ---------- *)

let test_paper_values_table1 () =
  check_close 1e-9 "estimate" 3.541 (Experiments.Paper_values.table1_estimate 0.9);
  check_close 1e-9 "sim" 11.306 (Experiments.Paper_values.table1_sim128 0.99);
  Alcotest.check_raises "unknown lambda" Not_found (fun () ->
      ignore (Experiments.Paper_values.table1_estimate 0.42))

let test_paper_values_table2 () =
  check_close 1e-9 "c10" 7.581
    (Experiments.Paper_values.table2_estimate ~stages:10 0.99);
  check_close 1e-9 "c20" 1.391
    (Experiments.Paper_values.table2_estimate ~stages:20 0.5);
  Alcotest.check_raises "unknown stages" Not_found (fun () ->
      ignore (Experiments.Paper_values.table2_estimate ~stages:7 0.5))

let test_paper_values_table3 () =
  check_close 1e-9 "T=4" 7.015
    (Experiments.Paper_values.table3_estimate ~threshold:4 0.9);
  check_close 1e-9 "sim T=6" 13.067
    (Experiments.Paper_values.table3_sim128 ~threshold:6 0.95)

let test_paper_values_table4 () =
  check_close 1e-9 "est" 4.011
    (Experiments.Paper_values.table4_estimate_2choices 0.99);
  check_close 1e-9 "sim" 1.436
    (Experiments.Paper_values.table4_sim128_2choices 0.5)

(* Our closed-form estimates must agree with the paper's printed estimate
   column to its 3-decimal rounding. *)
let test_our_estimates_match_paper_table1 () =
  List.iter
    (fun lambda ->
      check_close 6e-4
        (Printf.sprintf "lambda=%g" lambda)
        (Experiments.Paper_values.table1_estimate lambda)
        (Meanfield.Simple_ws.mean_time_exact ~lambda))
    Experiments.Paper_values.table1_lambdas

(* ---------- table formatting ---------- *)

let test_table_fmt_cells () =
  Alcotest.(check string) "cell" "1.234" (Experiments.Table_fmt.cell 1.2341);
  Alcotest.(check string) "nan" "-" (Experiments.Table_fmt.cell nan);
  Alcotest.(check string) "pct" "12.35" (Experiments.Table_fmt.cell_pct 12.349)

let test_table_fmt_render () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Table_fmt.render ppf ~title:"demo" ~note:"a note"
    ~headers:[ "a"; "bb" ]
    ~rows:[ [ "1"; "2" ]; [ "10"; "20" ] ]
    ();
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "has title" true
    (String.length out > 0
    && String.sub out 0 4 = "demo");
  Alcotest.(check bool) "contains note" true (contains out "a note");
  Alcotest.(check bool) "contains row" true (contains out "10  20")

let test_table_fmt_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Table_fmt.render: ragged row")
    (fun () ->
      Experiments.Table_fmt.render Format.str_formatter ~title:"x"
        ~headers:[ "a"; "b" ]
        ~rows:[ [ "1" ] ]
        ())

(* ---------- scope ---------- *)

let test_scope_presets () =
  Alcotest.(check bool) "paper runs 10" true
    (Experiments.Scope.paper.Experiments.Scope.fidelity.Wsim.Runner.runs = 10);
  Alcotest.(check bool) "quick smaller than default" true
    (Experiments.Scope.quick.Experiments.Scope.fidelity.Wsim.Runner.horizon
    < Experiments.Scope.default.Experiments.Scope.fidelity.Wsim.Runner.horizon)

let test_scope_note_mentions_seed () =
  let note = Experiments.Scope.note tiny_scope in
  Alcotest.(check bool) "seed in note" true (contains note "99")

(* ---------- tiny-fidelity experiment computations ---------- *)

let test_table1_compute_rows () =
  let rows = Experiments.Table1.compute tiny_scope in
  Alcotest.(check int) "six lambdas" 6 (List.length rows);
  List.iter
    (fun (r : Experiments.Table1.row) ->
      Alcotest.(check bool) "estimate finite" true
        (Float.is_finite r.Experiments.Table1.estimate);
      Alcotest.(check bool) "sim finite" true
        (List.for_all
           (fun (_, v) -> Float.is_finite v)
           r.Experiments.Table1.sims))
    rows;
  (* at lambda = 0.5 even a tiny simulation lands within ~15% *)
  let r0 = List.hd rows in
  Alcotest.(check bool) "rough agreement" true
    (r0.Experiments.Table1.rel_error_pct < 15.0)

let test_stability_compute_rows () =
  let rows = Experiments.Exp_stability.compute tiny_scope in
  Alcotest.(check bool) "has rows" true (List.length rows > 0);
  List.iter
    (fun (r : Experiments.Exp_stability.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "uptick small for lambda=%g start=%s"
           r.Experiments.Exp_stability.lambda r.Experiments.Exp_stability.start)
        true
        (r.Experiments.Exp_stability.max_uptick < 1e-6))
    rows

let test_convergence_compute_rows () =
  (* tiny scope: the doubling sweep floors at 16 and stops at twice the
     scope's largest size, so ns = [8] yields [16; 32] — enough to check
     the plumbing (calendar-queue replication, exact fixed point,
     max-norm distance) without a long simulation *)
  let rows = Experiments.Exp_convergence.compute tiny_scope in
  Alcotest.(check (list int))
    "sizes" [ 16; 32 ]
    (List.map (fun r -> r.Experiments.Exp_convergence.n) rows);
  List.iter
    (fun (r : Experiments.Exp_convergence.row) ->
      Alcotest.(check bool) "distance finite" true
        (Float.is_finite r.Experiments.Exp_convergence.distance);
      Alcotest.(check bool) "distance small" true
        (r.Experiments.Exp_convergence.distance < 0.25))
    rows;
  Alcotest.(check bool) "first ratio is nan" true
    (Float.is_nan (List.hd rows).Experiments.Exp_convergence.ratio);
  Alcotest.(check bool) "second ratio finite" true
    (Float.is_finite (List.nth rows 1).Experiments.Exp_convergence.ratio)

let test_table3_thresholds () =
  Alcotest.(check (list int)) "thresholds" [ 3; 4; 5; 6 ]
    Experiments.Table3.thresholds;
  check_close 1e-9 "rate" 0.25 Experiments.Table3.transfer_rate

(* ---------- catalog model selfchecks ----------

   One case per catalog family: every model variant must pass the
   shared runtime diagnostics (fixed point converges, invariants hold
   along a trajectory, fitted tail ratio matches the model's prediction
   when it has one) at its default parameters. *)

(* The load each family's selfcheck runs at; the others run at 0.7.
   batch's 0.6 is its arrival rate: event rate 0.3 × mean batch 2. *)
let selfcheck_lambda name =
  match
    List.assoc_opt name
      [
        ("mm1", 0.8); ("simple", 0.8); ("multi-choice", 0.8);
        ("transfer", 0.8); ("supermarket", 0.8); ("batch", 0.6);
      ]
  with
  | Some lambda -> lambda
  | None -> 0.7

let selfcheck_cases =
  List.map
    (fun name ->
      Alcotest.test_case name `Quick (fun () ->
          let model =
            Meanfield.Catalog.model ~name [] (selfcheck_lambda name)
          in
          let report = Meanfield.Selfcheck.run model in
          if not (Meanfield.Selfcheck.passed report) then
            Alcotest.failf "%s failed selfcheck:@.%a" name
              Meanfield.Selfcheck.pp report))
    Meanfield.Catalog.names

let test_models_cover_experiment_variants () =
  (* guard against silently dropping a variant from the catalog: the
     curated names every current experiment depends on must stay *)
  List.iter
    (fun required ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" required)
        true
        (List.mem required Meanfield.Catalog.names))
    [ "mm1"; "simple"; "erlang"; "threshold"; "preemptive"; "repeated";
      "multisteal"; "multi-choice"; "combined"; "rebalance"; "steal-half";
      "transfer"; "hetero"; "hyperexp"; "batch"; "supermarket" ]

(* Recorded from the four family lists the catalog replaced: per family,
   the served key at its defaults, and the model name and dim its
   λ-sized build gives at λ 0.9 and at its selfcheck load. The names
   spell out every parameter, so they also pin the defaults. *)
let catalog_golden =
  [
    ("mm1", "mm1()@96", "mm1(lambda=0.9)", 219, "mm1(lambda=0.8)", 104);
    ( "simple", "simple()@96", "simple_ws(lambda=0.9)", 219,
      "simple_ws(lambda=0.8)", 104 );
    ( "erlang", "erlang(stages=2)@96", "erlang_ws(lambda=0.9, c=2)", 72,
      "erlang_ws(lambda=0.7, c=2)", 50 );
    ( "threshold", "threshold(threshold=4)@96",
      "threshold_ws(lambda=0.9, T=4)", 219, "threshold_ws(lambda=0.7, T=4)",
      65 );
    ( "preemptive", "preemptive(begin_at=1,offset=3)@96",
      "preemptive_ws(lambda=0.9, B=1, T=3)", 219,
      "preemptive_ws(lambda=0.7, B=1, T=3)", 65 );
    ( "repeated", "repeated(retry_rate=1,threshold=2)@96",
      "repeated_steal_ws(lambda=0.9, r=1, T=2)", 219,
      "repeated_steal_ws(lambda=0.7, r=1, T=2)", 65 );
    ( "multisteal", "multisteal(steal_count=2,threshold=4)@96",
      "multi_steal_ws(lambda=0.9, k=2, T=4)", 219,
      "multi_steal_ws(lambda=0.7, k=2, T=4)", 65 );
    ( "multi-choice", "multi-choice(choices=2,threshold=2)@96",
      "multi_choice_ws(lambda=0.9, d=2, T=2)", 219,
      "multi_choice_ws(lambda=0.8, d=2, T=2)", 104 );
    ( "combined", "combined(choices=2,steal_count=2,threshold=4)@96",
      "combined_ws(lambda=0.9, T=4, d=2, k=2)", 219,
      "combined_ws(lambda=0.7, T=4, d=2, k=2)", 65 );
    ( "rebalance", "rebalance(rate=0.5)@96", "rebalance_ws(lambda=0.9, r=0.5)",
      219, "rebalance_ws(lambda=0.7, r=0.5)", 65 );
    ( "steal-half", "steal-half(threshold=2)@96",
      "steal_half_ws(lambda=0.9, T=2)", 219, "steal_half_ws(lambda=0.7, T=2)",
      65 );
    ( "transfer", "transfer(stages=1,threshold=4,transfer_rate=0.25)@96",
      "transfer_ws(lambda=0.9, r=0.25, T=4)", 440,
      "transfer_ws(lambda=0.8, r=0.25, T=4)", 210 );
    ( "hetero",
      "hetero(fraction_fast=0.5,mu_fast=1.5,mu_slow=0.5,threshold=2)@96",
      "heterogeneous_ws(lambda=0.9, f=0.5, mu_f=1.5, mu_s=0.5, T=2)", 1538,
      "heterogeneous_ws(lambda=0.7, f=0.5, mu_f=1.5, mu_s=0.5, T=2)", 1538 );
    ( "hyperexp", "hyperexp(mu1=2,mu2=0.8,p1=0.5,threshold=2)@96",
      "hyperexp_ws(lambda=0.9, p1=0.5, mu=(2,0.8), T=2)", 195,
      "hyperexp_ws(lambda=0.7, p1=0.5, mu=(2,0.8), T=2)", 97 );
    ( "batch", "batch(mean_batch=2,threshold=2)@96",
      "batch_ws(rate=0.45, batch=2, T=2)", 310,
      "batch_ws(rate=0.3, batch=2, T=2)", 68 );
    ( "supermarket", "supermarket(choices=2)@96",
      "supermarket(lambda=0.9, d=2)", 219, "supermarket(lambda=0.8, d=2)",
      104 );
  ]

let test_catalog_golden () =
  Alcotest.(check (list string))
    "families, in order"
    (List.map (fun (name, _, _, _, _, _) -> name) catalog_golden)
    Meanfield.Catalog.names;
  List.iter
    (fun (name, key, at_09, dim_09, at_own, dim_own) ->
      (match Serve.Families.resolve ~name [] with
      | Ok fam ->
          Alcotest.(check string) (name ^ " key") key fam.Serve.Families.family
      | Error e -> Alcotest.failf "%s should resolve: %s" name e);
      List.iter
        (fun (lambda, expected, dim) ->
          let m = Meanfield.Catalog.model ~name [] lambda in
          Alcotest.(check string)
            (Printf.sprintf "%s name at %g" name lambda)
            expected m.Meanfield.Model.name;
          Alcotest.(check int)
            (Printf.sprintf "%s dim at %g" name lambda)
            dim m.Meanfield.Model.dim)
        [ (0.9, at_09, dim_09); (selfcheck_lambda name, at_own, dim_own) ])
    catalog_golden

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
        ] );
      ( "paper-values",
        [
          Alcotest.test_case "table1" `Quick test_paper_values_table1;
          Alcotest.test_case "table2" `Quick test_paper_values_table2;
          Alcotest.test_case "table3" `Quick test_paper_values_table3;
          Alcotest.test_case "table4" `Quick test_paper_values_table4;
          Alcotest.test_case "our estimates match table1" `Quick
            test_our_estimates_match_paper_table1;
        ] );
      ( "table-fmt",
        [
          Alcotest.test_case "cells" `Quick test_table_fmt_cells;
          Alcotest.test_case "render" `Quick test_table_fmt_render;
          Alcotest.test_case "ragged rejected" `Quick test_table_fmt_ragged;
        ] );
      ( "scope",
        [
          Alcotest.test_case "presets" `Quick test_scope_presets;
          Alcotest.test_case "note" `Quick test_scope_note_mentions_seed;
        ] );
      ( "model-selfcheck",
        Alcotest.test_case "covers all variants" `Quick
          test_models_cover_experiment_variants
        :: Alcotest.test_case "catalog golden" `Quick test_catalog_golden
        :: selfcheck_cases );
      ( "computations",
        [
          Alcotest.test_case "table1 rows" `Slow test_table1_compute_rows;
          Alcotest.test_case "stability rows" `Slow
            test_stability_compute_rows;
          Alcotest.test_case "convergence rows" `Slow
            test_convergence_compute_rows;
          Alcotest.test_case "table3 constants" `Quick
            test_table3_thresholds;
        ] );
    ]
