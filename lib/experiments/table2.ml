type row = {
  lambda : float;
  sims : (int * float) list;
  estimate_c10 : float;
  estimate_c20 : float;
  paper_sim128 : float;
  paper_c10 : float;
  paper_c20 : float;
}

(* The Erlang task depth is pinned to its λ = 0.99 value so every model
   in a chain shares one state dimension and the λ-continuation warm
   starts always transfer (the extra tail components cost ~nothing at
   low λ, where they are ~0). *)
let task_depth = 60

let build ~stages lambda =
  Meanfield.Erlang_ws.model ~lambda ~stages ~task_depth ()

let chain ~stages =
  Meanfield.Continuation.along_lambda ~build:(build ~stages)
    Paper_values.table1_lambdas

let stage_estimate chain ~lambda ~stages =
  let fp = Meanfield.Continuation.lookup chain lambda in
  Meanfield.Model.mean_time (build ~stages lambda) fp.Meanfield.Drive.state

let compute (scope : Scope.t) =
  (* Fixed points first (serial λ-continuation), simulations after
     (deterministic parallel fan-out). *)
  let chain10 = chain ~stages:10 and chain20 = chain ~stages:20 in
  Scope.par_map scope
    (fun lambda ->
      Scope.progress scope "[table2] lambda=%g@." lambda;
      let config =
        {
          Wsim.Cluster.default with
          arrival_rate = lambda;
          service = Prob.Dist.Deterministic;
          policy = Wsim.Policy.simple;
        }
      in
      let sims =
        List.map
          (fun n -> (n, Scope.sim_mean_sojourn scope ~n config))
          scope.Scope.ns
      in
      {
        lambda;
        sims;
        estimate_c10 = stage_estimate chain10 ~lambda ~stages:10;
        estimate_c20 = stage_estimate chain20 ~lambda ~stages:20;
        paper_sim128 = Paper_values.table2_sim128 lambda;
        paper_c10 = Paper_values.table2_estimate ~stages:10 lambda;
        paper_c20 = Paper_values.table2_estimate ~stages:20 lambda;
      })
    Paper_values.table1_lambdas

let print scope ppf =
  let rows = compute scope in
  let headers =
    "lambda"
    :: List.map (fun n -> Printf.sprintf "Sim(%d)" n) scope.Scope.ns
    @ [ "c=10"; "c=20"; "paper S128"; "paper c10"; "paper c20" ]
  in
  let body =
    List.map
      (fun r ->
        Printf.sprintf "%.2f" r.lambda
        :: List.map (fun (_, v) -> Table_fmt.cell v) r.sims
        @ [
            Table_fmt.cell r.estimate_c10;
            Table_fmt.cell r.estimate_c20;
            Table_fmt.cell r.paper_sim128;
            Table_fmt.cell r.paper_c10;
            Table_fmt.cell r.paper_c20;
          ])
      rows
  in
  Table_fmt.render ppf
    ~title:
      "Table 2: constant service times — simulations vs. stage estimates \
       (T=2)"
    ~note:(Scope.note scope) ~headers ~rows:body ()
