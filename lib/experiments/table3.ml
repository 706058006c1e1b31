type entry = {
  sim : float;
  estimate : float;
  paper_sim : float;
  paper_est : float;
}

type row = {
  lambda : float;
  per_threshold : (int * entry) list;
  best_threshold_est : int;
  best_threshold_sim : int;
}

let thresholds = [ 3; 4; 5; 6 ]
let transfer_rate = 0.25

let argmin_by f = function
  | [] -> invalid_arg "argmin_by: empty"
  | x :: rest ->
      fst
        (List.fold_left
           (fun (bk, bv) item ->
             let v = f item in
             if v < bv then (fst item, v) else (bk, bv))
           (fst x, f x) rest)

let build ~threshold ~depth lambda =
  Meanfield.Transfer_ws.model ~lambda ~transfer_rate ~threshold ~depth ()

let compute (scope : Scope.t) =
  let n = List.fold_left max 2 scope.Scope.ns in
  (* One λ-continuation chain per threshold, solved before the parallel
     fan-out; the task depth is pinned across each chain so the warm
     starts transfer. *)
  let depth = Meanfield.Continuation.pinned_dim Paper_values.table3_lambdas in
  let chains =
    List.map
      (fun threshold ->
        ( threshold,
          Meanfield.Continuation.along_lambda ~build:(build ~threshold ~depth)
            Paper_values.table3_lambdas ))
      thresholds
  in
  (* one parallel task per lambda row; the threshold sweep stays inside
     the row so its entries land pre-grouped *)
  Scope.par_map scope
    (fun lambda ->
      let per_threshold =
        List.map
          (fun threshold ->
            Scope.progress scope "[table3] lambda=%g T=%d@." lambda
              threshold;
            let config =
              {
                Wsim.Cluster.default with
                arrival_rate = lambda;
                policy = Wsim.Policy.Transfer { transfer_rate; threshold; stages = 1 };
              }
            in
            let sim = Scope.sim_mean_sojourn scope ~n config in
            let fp =
              Meanfield.Continuation.lookup (List.assoc threshold chains) lambda
            in
            let estimate =
              Meanfield.Model.mean_time
                (build ~threshold ~depth lambda)
                fp.Meanfield.Drive.state
            in
            ( threshold,
              {
                sim;
                estimate;
                paper_sim = Paper_values.table3_sim128 ~threshold lambda;
                paper_est = Paper_values.table3_estimate ~threshold lambda;
              } ))
          thresholds
      in
      {
        lambda;
        per_threshold;
        best_threshold_est = argmin_by (fun (_, e) -> e.estimate) per_threshold;
        best_threshold_sim = argmin_by (fun (_, e) -> e.sim) per_threshold;
      })
    Paper_values.table3_lambdas

let print scope ppf =
  let rows = compute scope in
  let n = List.fold_left max 2 scope.Scope.ns in
  let headers =
    "lambda"
    :: List.concat_map
         (fun t ->
           [ Printf.sprintf "T=%d Sim(%d)" t n; Printf.sprintf "T=%d Est" t ])
         thresholds
    @ [ "best(Est)"; "best(Sim)" ]
  in
  let body =
    List.map
      (fun r ->
        Printf.sprintf "%.2f" r.lambda
        :: List.concat_map
             (fun (_, e) -> [ Table_fmt.cell e.sim; Table_fmt.cell e.estimate ])
             r.per_threshold
        @ [
            string_of_int r.best_threshold_est;
            string_of_int r.best_threshold_sim;
          ])
      rows
  in
  Table_fmt.render ppf
    ~title:
      (Printf.sprintf
         "Table 3: transfer times (r=%.2f) — expected time vs. threshold"
         transfer_rate)
    ~note:(Scope.note scope) ~headers ~rows:body ();
  (* paper values for reference *)
  let ref_body =
    List.map
      (fun r ->
        Printf.sprintf "%.2f" r.lambda
        :: List.concat_map
             (fun (_, e) ->
               [ Table_fmt.cell e.paper_sim; Table_fmt.cell e.paper_est ])
             r.per_threshold)
      rows
  in
  Table_fmt.render ppf ~title:"  (paper-reported values)"
    ~headers:
      ("lambda"
      :: List.concat_map
           (fun t ->
             [ Printf.sprintf "T=%d Sim128" t; Printf.sprintf "T=%d Est" t ])
           thresholds)
    ~rows:ref_body ()
