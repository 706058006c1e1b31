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

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> String.lowercase_ascii e.name = name) all
