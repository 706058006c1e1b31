type row = {
  lambda : float;
  sims : (int * float) list;
  estimate : float;
  estimate_ode : float;
  rel_error_pct : float;
  paper_sim128 : float;
  paper_estimate : float;
}

let build ~dim lambda = Meanfield.Simple_ws.model ~lambda ~dim ()

let compute (scope : Scope.t) =
  (* ODE cross-check of the closed form: the whole grid solved by
     λ-continuation up front (dimension pinned across the chain), so the
     parallel fan-out below only runs simulations. *)
  let dim = Meanfield.Continuation.pinned_dim Paper_values.table1_lambdas in
  let chain =
    Meanfield.Continuation.along_lambda ~build:(build ~dim)
      Paper_values.table1_lambdas
  in
  Scope.par_map scope
    (fun lambda ->
      Scope.progress scope "[table1] lambda=%g@." lambda;
      let config =
        {
          Wsim.Cluster.default with
          arrival_rate = lambda;
          policy = Wsim.Policy.simple;
        }
      in
      let sims =
        List.map
          (fun n -> (n, Scope.sim_mean_sojourn scope ~n config))
          scope.Scope.ns
      in
      let estimate = Meanfield.Simple_ws.mean_time_exact ~lambda in
      let estimate_ode =
        let fp = Meanfield.Continuation.lookup chain lambda in
        Meanfield.Model.mean_time (build ~dim lambda)
          fp.Meanfield.Drive.state
      in
      let sim_big = snd (List.nth sims (List.length sims - 1)) in
      {
        lambda;
        sims;
        estimate;
        estimate_ode;
        rel_error_pct = Float.abs (sim_big -. estimate) /. estimate *. 100.;
        paper_sim128 = Paper_values.table1_sim128 lambda;
        paper_estimate = Paper_values.table1_estimate lambda;
      })
    Paper_values.table1_lambdas

let print scope ppf =
  let rows = compute scope in
  let headers =
    "lambda"
    :: List.map (fun n -> Printf.sprintf "Sim(%d)" n) scope.Scope.ns
    @ [ "Estimate"; "ODE"; "RelErr(%)"; "paper S128"; "paper Est" ]
  in
  let body =
    List.map
      (fun r ->
        Printf.sprintf "%.2f" r.lambda
        :: List.map (fun (_, v) -> Table_fmt.cell v) r.sims
        @ [
            Table_fmt.cell r.estimate;
            Table_fmt.cell r.estimate_ode;
            Table_fmt.cell_pct r.rel_error_pct;
            Table_fmt.cell r.paper_sim128;
            Table_fmt.cell r.paper_estimate;
          ])
      rows
  in
  Table_fmt.render ppf
    ~title:"Table 1: simulations vs. estimates, simplest WS model"
    ~note:(Scope.note scope) ~headers ~rows:body ()
