type row = {
  lambda : float;
  sim_1choice : float;
  sim_2choices : float;
  estimate_2choices : float;
  paper_sim_1choice : float;
  paper_sim_2choices : float;
  paper_estimate : float;
}

let build ~dim lambda =
  Meanfield.Multi_choice_ws.model ~lambda ~choices:2 ~threshold:2 ~dim ()

let compute (scope : Scope.t) =
  let n = List.fold_left max 2 scope.Scope.ns in
  (* Fixed points solved by λ-continuation (dimension pinned across the
     grid) before the parallel simulation fan-out. *)
  let dim = Meanfield.Continuation.pinned_dim Paper_values.table1_lambdas in
  let chain =
    Meanfield.Continuation.along_lambda ~build:(build ~dim)
      Paper_values.table1_lambdas
  in
  Scope.par_map scope
    (fun lambda ->
      Scope.progress scope "[table4] lambda=%g@." lambda;
      let config choices =
        {
          Wsim.Cluster.default with
          arrival_rate = lambda;
          policy =
            Wsim.Policy.On_empty { threshold = 2; choices; steal_count = 1 };
        }
      in
      let model = build ~dim lambda in
      let fp = Meanfield.Continuation.lookup chain lambda in
      {
        lambda;
        sim_1choice = Scope.sim_mean_sojourn scope ~n (config 1);
        sim_2choices = Scope.sim_mean_sojourn scope ~n (config 2);
        estimate_2choices =
          Meanfield.Model.mean_time model fp.Meanfield.Drive.state;
        paper_sim_1choice = Paper_values.table1_sim128 lambda;
        paper_sim_2choices = Paper_values.table4_sim128_2choices lambda;
        paper_estimate = Paper_values.table4_estimate_2choices lambda;
      })
    Paper_values.table1_lambdas

let print scope ppf =
  let rows = compute scope in
  let n = List.fold_left max 2 scope.Scope.ns in
  let headers =
    [
      "lambda";
      Printf.sprintf "Sim(%d) 1ch" n;
      Printf.sprintf "Sim(%d) 2ch" n;
      "Est 2ch";
      "paper 1ch";
      "paper 2ch";
      "paper Est";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          Printf.sprintf "%.2f" r.lambda;
          Table_fmt.cell r.sim_1choice;
          Table_fmt.cell r.sim_2choices;
          Table_fmt.cell r.estimate_2choices;
          Table_fmt.cell r.paper_sim_1choice;
          Table_fmt.cell r.paper_sim_2choices;
          Table_fmt.cell r.paper_estimate;
        ])
      rows
  in
  Table_fmt.render ppf
    ~title:"Table 4: one choice vs. two choices (T=2)"
    ~note:(Scope.note scope) ~headers ~rows:body ()
