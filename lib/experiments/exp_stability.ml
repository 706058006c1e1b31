type row = {
  lambda : float;
  pi2 : float;
  theorem_applies : bool;
  start : string;
  max_uptick : float;
  converge_time : float;
}

let lambdas = [ 0.5; 0.7; 0.823; 0.9; 0.95 ]

let starts dim =
  [
    ("empty", `Empty);
    ("loaded(8)", `State (Meanfield.Tail.geometric ~dim ~ratio:0.0 ~mass:1.0
                          |> fun v ->
                          for i = 1 to 8 do
                            v.(i) <- 1.0
                          done;
                          v));
    ("geometric(0.97)",
     `State (Meanfield.Tail.geometric ~dim ~ratio:0.97 ~mass:1.0));
  ]

let compute ?(threshold = 2) (scope : Scope.t) =
  (* Solve the fixed points once by λ-continuation (the same solver path
     the tables use, cross-checked against the closed form elsewhere);
     the parallel fan-out below only integrates trajectories. *)
  let dim =
    max (threshold + 8) (Meanfield.Continuation.pinned_dim lambdas)
  in
  let chain =
    Meanfield.Continuation.along_lambda
      ~build:(fun lambda ->
        Meanfield.Threshold_ws.model ~lambda ~threshold ~dim ())
      lambdas
  in
  (* one parallel task per lambda, covering its three starting states *)
  List.concat
    (Scope.par_map scope
       (fun lambda ->
      Scope.progress scope "[stability] lambda=%g T=%d@." lambda threshold;
      let model = Meanfield.Threshold_ws.model ~lambda ~threshold ~dim () in
      let fixed_point =
        (Meanfield.Continuation.lookup chain lambda).Meanfield.Drive.state
      in
      let pi2 = fixed_point.(2) in
      let horizon = 80.0 /. (1.0 -. lambda) in
      List.map
        (fun (name, start) ->
          let trace =
            Meanfield.Stability.distance_trace ~start ~fixed_point ~horizon
              ~sample_every:(horizon /. 400.0) model
          in
          let converge_time =
            match
              List.find_opt (fun (_, d) -> d <= 1e-6) trace
            with
            | Some (t, _) -> t
            | None -> nan
          in
          {
            lambda;
            pi2;
            theorem_applies = pi2 < 0.5;
            start = name;
            max_uptick = Meanfield.Stability.max_uptick trace;
            converge_time;
          })
            (starts dim))
       lambdas)

let print scope ppf =
  let rows = compute scope in
  Table_fmt.render ppf
    ~title:
      (Printf.sprintf
         "E9: L1 distance to the fixed point along trajectories (simple \
          system; Theorem 1 bound lambda* = %.4f)"
         Meanfield.Stability.simple_ws_stable_lambda_bound)
    ~note:"(max uptick ~ 0 means D(t) was non-increasing numerically)"
    ~headers:
      [ "lambda"; "pi2"; "thm?"; "start"; "max uptick"; "t(D<1e-6)" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Printf.sprintf "%.3f" r.lambda;
             Printf.sprintf "%.4f" r.pi2;
             (if r.theorem_applies then "yes" else "no");
             r.start;
             Printf.sprintf "%.2e" r.max_uptick;
             Table_fmt.cell r.converge_time;
           ])
         rows)
    ()
