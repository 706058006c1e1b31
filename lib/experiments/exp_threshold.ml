type threshold_row = {
  lambda : float;
  threshold : int;
  exact : float;
  ode : float;
  sim : float;
  ratio_predicted : float;
  ratio_fitted : float;
}

type preemptive_row = {
  lambda : float;
  begin_at : int;
  offset : int;
  ode : float;
  sim : float;
  ratio_predicted : float;
  ratio_fitted : float;
}

let lambdas = [ 0.7; 0.9 ]
let thresholds = [ 2; 3; 4; 5; 6 ]

let compute_threshold (scope : Scope.t) =
  let n = List.fold_left max 2 scope.Scope.ns in
  (* One λ-continuation chain per threshold (dimension pinned across the
     chain), solved before the simulations fan out in parallel. *)
  let chains =
    List.map
      (fun threshold ->
        let dim =
          max (threshold + 8) (Meanfield.Continuation.pinned_dim lambdas)
        in
        ( threshold,
          (dim,
           Meanfield.Continuation.along_lambda
             ~build:(fun lambda ->
               Meanfield.Threshold_ws.model ~lambda ~threshold ~dim ())
             lambdas) ))
      thresholds
  in
  Scope.par_map scope
    (fun (lambda, threshold) ->
      Scope.progress scope "[threshold] lambda=%g T=%d@." lambda threshold;
      let dim, chain = List.assoc threshold chains in
      let model = Meanfield.Threshold_ws.model ~lambda ~threshold ~dim () in
      let fp = Meanfield.Continuation.lookup chain lambda in
      let state = fp.Meanfield.Drive.state in
      let config =
        {
          Wsim.Cluster.default with
          arrival_rate = lambda;
          policy =
            Wsim.Policy.On_empty { threshold; choices = 1; steal_count = 1 };
        }
      in
      {
        lambda;
        threshold;
        exact = Meanfield.Threshold_ws.mean_time_exact ~lambda ~threshold;
        ode = Meanfield.Model.mean_time model state;
        sim = Scope.sim_mean_sojourn scope ~n config;
        ratio_predicted =
          Meanfield.Threshold_ws.tail_ratio_exact ~lambda ~threshold;
        ratio_fitted =
          Meanfield.Metrics.empirical_tail_ratio ~from:(threshold + 2) state;
      })
    (List.concat_map
       (fun lambda -> List.map (fun t -> (lambda, t)) thresholds)
       lambdas)

let preemptive_params = [ (0, 2); (1, 3); (2, 4); (0, 4); (2, 6) ]

let compute_preemptive (scope : Scope.t) =
  let n = List.fold_left max 2 scope.Scope.ns in
  let chains =
    List.map
      (fun (begin_at, offset) ->
        let dim =
          max (begin_at + offset + 8)
            (Meanfield.Continuation.pinned_dim lambdas)
        in
        ( (begin_at, offset),
          (dim,
           Meanfield.Continuation.along_lambda
             ~build:(fun lambda ->
               Meanfield.Preemptive_ws.model ~lambda ~begin_at ~offset ~dim
                 ())
             lambdas) ))
      preemptive_params
  in
  Scope.par_map scope
    (fun (lambda, (begin_at, offset)) ->
      Scope.progress scope "[preemptive] lambda=%g B=%d T=%d@." lambda
        begin_at offset;
      let dim, chain = List.assoc (begin_at, offset) chains in
      let model =
        Meanfield.Preemptive_ws.model ~lambda ~begin_at ~offset ~dim ()
      in
      let fp = Meanfield.Continuation.lookup chain lambda in
      let state = fp.Meanfield.Drive.state in
      let config =
        {
          Wsim.Cluster.default with
          arrival_rate = lambda;
          policy = Wsim.Policy.Preemptive { begin_at; offset };
        }
      in
      {
        lambda;
        begin_at;
        offset;
        ode = Meanfield.Model.mean_time model state;
        sim = Scope.sim_mean_sojourn scope ~n config;
        ratio_predicted =
          Meanfield.Preemptive_ws.tail_ratio_predicted ~lambda state
            ~begin_at;
        ratio_fitted =
          Meanfield.Metrics.empirical_tail_ratio
            ~from:(begin_at + offset + 2)
            state;
      })
    (List.concat_map
       (fun lambda -> List.map (fun p -> (lambda, p)) preemptive_params)
       lambdas)

let print scope ppf =
  let rows = compute_threshold scope in
  let n = List.fold_left max 2 scope.Scope.ns in
  Table_fmt.render ppf
    ~title:"E5a: threshold stealing — expected time and tail decay"
    ~note:(Scope.note scope)
    ~headers:
      [ "lambda"; "T"; "Exact"; "ODE"; Printf.sprintf "Sim(%d)" n;
        "ratio pred"; "ratio fit" ]
    ~rows:
      (List.map
         (fun (r : threshold_row) ->
           [
             Printf.sprintf "%.2f" r.lambda;
             string_of_int r.threshold;
             Table_fmt.cell r.exact;
             Table_fmt.cell r.ode;
             Table_fmt.cell r.sim;
             Printf.sprintf "%.4f" r.ratio_predicted;
             Printf.sprintf "%.4f" r.ratio_fitted;
           ])
         rows)
    ();
  let rows = compute_preemptive scope in
  Table_fmt.render ppf
    ~title:"E5b: preemptive stealing (steal when load <= B, offset T)"
    ~headers:
      [ "lambda"; "B"; "T"; "ODE"; Printf.sprintf "Sim(%d)" n;
        "ratio pred"; "ratio fit" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Printf.sprintf "%.2f" r.lambda;
             string_of_int r.begin_at;
             string_of_int r.offset;
             Table_fmt.cell r.ode;
             Table_fmt.cell r.sim;
             Printf.sprintf "%.4f" r.ratio_predicted;
             Printf.sprintf "%.4f" r.ratio_fitted;
           ])
         rows)
    ()
