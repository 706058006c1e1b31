type t = {
  name : string;
  paper_ref : string;
  print : Scope.t -> Format.formatter -> unit;
}

let all =
  [
    {
      name = "table1";
      paper_ref = "Table 1: simplest WS model, simulations vs estimates";
      print = Table1.print;
    };
    {
      name = "table2";
      paper_ref = "Table 2: constant service times via Erlang stages";
      print = Table2.print;
    };
    {
      name = "table3";
      paper_ref = "Table 3: transfer times, threshold selection";
      print = Table3.print;
    };
    {
      name = "table4";
      paper_ref = "Table 4: one victim choice vs two";
      print = Table4.print;
    };
    {
      name = "threshold";
      paper_ref = "E5: threshold (2.3) and preemptive (2.4) stealing";
      print = Exp_threshold.print;
    };
    {
      name = "repeated";
      paper_ref = "E6: repeated steal attempts (2.5)";
      print = Exp_repeated.print;
    };
    {
      name = "multisteal";
      paper_ref = "E7: multi-task steals and pairwise rebalancing (3.4)";
      print = Exp_multisteal.print;
    };
    {
      name = "hetero";
      paper_ref = "E8: heterogeneous speeds and static drain (3.5)";
      print = Exp_hetero.print;
    };
    {
      name = "stability";
      paper_ref = "E9: L1 stability and convergence (Section 4)";
      print = Exp_stability.print;
    };
    {
      name = "sharing";
      paper_ref = "E10 (extension): work sharing vs work stealing vs both";
      print = Exp_sharing.print;
    };
    {
      name = "ablation";
      paper_ref = "E11 (ablation): truncation depth, integrator, acceleration";
      print = Exp_ablation.print;
    };
    {
      name = "batch";
      paper_ref =
        "E12 (extension): bursty arrivals and service variability (3.1)";
      print = Exp_batch.print;
    };
    {
      name = "locality";
      paper_ref =
        "E13 (extension): ring-locality stealing vs uniform victims";
      print = Exp_locality.print;
    };
    {
      name = "transient";
      paper_ref = "E14: trajectory-level ODE vs simulation (Kurtz limit)";
      print = Exp_transient.print;
    };
    {
      name = "convergence";
      paper_ref = "E15: empirical convergence rate to the mean-field limit";
      print = Exp_convergence.print;
    };
  ]

(* Every mean-field model variant the experiments above instantiate,
   under representative parameters: the test suite runs Core.Selfcheck
   over each entry, so registering a model here buys it the fixed-point,
   invariant, trajectory and tail-ratio diagnostics for free. Static_ws
   is deliberately absent — it is a finite drain with no steady state
   for Selfcheck's fixed-point search (its experiment integrates
   trajectories instead). *)
(* The same sixteen variants with every arrival rate tied to one [lambda]
   (the batch model's event rate is scaled so its effective arrival rate
   [event_rate · mean_batch] equals [lambda]). The solver tests sweep this
   over easy and near-critical loads; [models] below keeps the historical
   per-model representative parameters the selfchecks pin. *)
let models_at ~lambda =
  [
    ("mm1", fun () -> Meanfield.Mm1.model ~lambda ());
    ("simple", fun () -> Meanfield.Simple_ws.model ~lambda ());
    ("erlang", fun () -> Meanfield.Erlang_ws.model ~lambda ~stages:2 ());
    ( "threshold",
      fun () -> Meanfield.Threshold_ws.model ~lambda ~threshold:4 () );
    ( "preemptive",
      fun () -> Meanfield.Preemptive_ws.model ~lambda ~begin_at:1 ~offset:3 ()
    );
    ( "repeated",
      fun () ->
        Meanfield.Repeated_steal_ws.model ~lambda ~retry_rate:1.0 ~threshold:2
          () );
    ( "multisteal",
      fun () ->
        Meanfield.Multi_steal_ws.model ~lambda ~steal_count:2 ~threshold:4 ()
    );
    ( "multi-choice",
      fun () ->
        Meanfield.Multi_choice_ws.model ~lambda ~choices:2 ~threshold:2 () );
    ( "combined",
      fun () ->
        Meanfield.Combined_ws.model ~lambda ~threshold:4 ~choices:2
          ~steal_count:2 () );
    ( "rebalance",
      fun () -> Meanfield.Rebalance_ws.model_uniform_rate ~lambda ~rate:0.5 ()
    );
    ("steal-half", fun () -> Meanfield.Steal_half_ws.model ~lambda ());
    ( "transfer",
      fun () ->
        Meanfield.Transfer_ws.model ~lambda ~transfer_rate:0.25 ~threshold:4
          () );
    ( "hetero",
      fun () ->
        Meanfield.Heterogeneous_ws.model ~lambda ~fraction_fast:0.5
          ~mu_fast:1.5 ~mu_slow:0.5 ~threshold:2 () );
    ( "hyperexp",
      fun () ->
        Meanfield.Hyperexp_ws.model ~lambda ~p1:0.5 ~mu1:2.0 ~mu2:0.8 () );
    ( "batch",
      fun () ->
        Meanfield.Batch_ws.model ~event_rate:(lambda /. 2.0) ~mean_batch:2.0
          () );
    ( "supermarket",
      fun () -> Meanfield.Supermarket.model ~lambda ~choices:2 () );
  ]

let models =
  [
    ("mm1", fun () -> Meanfield.Mm1.model ~lambda:0.8 ());
    ("simple", fun () -> Meanfield.Simple_ws.model ~lambda:0.8 ());
    ("erlang", fun () -> Meanfield.Erlang_ws.model ~lambda:0.7 ~stages:2 ());
    ( "threshold",
      fun () -> Meanfield.Threshold_ws.model ~lambda:0.7 ~threshold:4 () );
    ( "preemptive",
      fun () ->
        Meanfield.Preemptive_ws.model ~lambda:0.7 ~begin_at:1 ~offset:3 () );
    ( "repeated",
      fun () ->
        Meanfield.Repeated_steal_ws.model ~lambda:0.7 ~retry_rate:1.0
          ~threshold:2 () );
    ( "multisteal",
      fun () ->
        Meanfield.Multi_steal_ws.model ~lambda:0.7 ~steal_count:2 ~threshold:4
          () );
    ( "multi-choice",
      fun () ->
        Meanfield.Multi_choice_ws.model ~lambda:0.8 ~choices:2 ~threshold:2 ()
    );
    ( "combined",
      fun () ->
        Meanfield.Combined_ws.model ~lambda:0.7 ~threshold:4 ~choices:2
          ~steal_count:2 () );
    ( "rebalance",
      fun () -> Meanfield.Rebalance_ws.model_uniform_rate ~lambda:0.7 ~rate:0.5 ()
    );
    ("steal-half", fun () -> Meanfield.Steal_half_ws.model ~lambda:0.7 ());
    ( "transfer",
      fun () ->
        Meanfield.Transfer_ws.model ~lambda:0.8 ~transfer_rate:0.25
          ~threshold:4 () );
    ( "hetero",
      fun () ->
        Meanfield.Heterogeneous_ws.model ~lambda:0.7 ~fraction_fast:0.5
          ~mu_fast:1.5 ~mu_slow:0.5 ~threshold:2 () );
    ( "hyperexp",
      fun () ->
        Meanfield.Hyperexp_ws.model ~lambda:0.7 ~p1:0.5 ~mu1:2.0 ~mu2:0.8 ()
    );
    ( "batch",
      fun () -> Meanfield.Batch_ws.model ~event_rate:0.3 ~mean_batch:2.0 () );
    ( "supermarket",
      fun () -> Meanfield.Supermarket.model ~lambda:0.8 ~choices:2 () );
  ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> String.lowercase_ascii e.name = name) all
