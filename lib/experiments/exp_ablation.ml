type depth_row = { dim : int; abs_error : float; rel_error : float }

type solver_row = {
  stepper : string;
  dt : float;
  wall_seconds : float;
  residual : float;
  et_error : float;
}

type accel_row = {
  accelerate : bool;
  wall_seconds : float;
  relaxation_time : float;
  et_error : float;
}

let lambda = 0.95

let exact = lazy (Meanfield.Simple_ws.mean_time_exact ~lambda)

let compute_depth () =
  (* force outside the parallel map: concurrent Lazy.force races *)
  let exact = Lazy.force exact in
  Parallel.Pool.map
    (Parallel.Pool.default ())
    (fun dim ->
      let model = Meanfield.Simple_ws.model ~lambda ~dim () in
      let fp = Meanfield.Drive.fixed_point model in
      let et = Meanfield.Model.mean_time model fp.Meanfield.Drive.state in
      let abs_error = Float.abs (et -. exact) in
      { dim; abs_error; rel_error = abs_error /. exact })
    [ 16; 24; 32; 48; 96; 192; 384 ]

(* E11b/E11c report wall-clock ablations, so they stay serial: timing
   rows while sharing cores would measure scheduler noise, not solvers.
   CLOCK_MONOTONIC, not Sys.time: process CPU time aggregates over every
   domain, so it reads inflated as soon as the pool is warm. *)
let wall f =
  let t0 = Monotonic_clock.now () in
  let result = f () in
  let elapsed =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
  in
  (result, elapsed)

let compute_solver () =
  let model = Meanfield.Simple_ws.model ~lambda ~dim:128 () in
  let sys = Meanfield.Model.as_system model in
  let relax_with stepper dt =
    let y = model.Meanfield.Model.initial_warm () in
    (match
       Numerics.Ode.relax ~stepper ~dt ~tol:1e-11 ~max_time:2e4 sys ~y
     with
    | Numerics.Ode.Converged r | Numerics.Ode.Timed_out r -> (y, r))
  in
  let explicit =
    List.map
      (fun (name, stepper, dt) ->
        let (y, residual), wall_seconds = wall (fun () -> relax_with stepper dt) in
        {
          stepper = name;
          dt;
          wall_seconds;
          residual;
          et_error =
            Float.abs
              (Meanfield.Model.mean_time model y -. Lazy.force exact);
        })
      [
        (* stability-limited steps: Euler needs dt < 2/rate, RK4 ~ 2.8/rate *)
        ("euler", Numerics.Ode.Euler, 0.25);
        ("midpoint", Numerics.Ode.Midpoint, 0.25);
        ("rk4", Numerics.Ode.Rk4, 0.25);
        ("rk4 (big dt)", Numerics.Ode.Rk4, 0.6);
      ]
  in
  (* adaptive Dormand-Prince for a fixed horizon as reference *)
  let dopri =
    let y = model.Meanfield.Model.initial_warm () in
    let (), wall_seconds =
      wall (fun () ->
          ignore
            (Numerics.Ode.adaptive ~rtol:1e-10 ~atol:1e-13 sys ~y ~t0:0.0
               ~t1:2000.0))
    in
    let dy = Array.make model.Meanfield.Model.dim 0.0 in
    model.Meanfield.Model.deriv ~y ~dy;
    {
      stepper = "dopri5 (t=2000)";
      dt = nan;
      wall_seconds;
      residual = Numerics.Vec.norm_inf dy;
      et_error =
        Float.abs (Meanfield.Model.mean_time model y -. Lazy.force exact);
    }
  in
  explicit @ [ dopri ]

let compute_accel () =
  List.map
    (fun accelerate ->
      let model = Meanfield.Simple_ws.model ~lambda ~dim:128 () in
      let fp, wall_seconds =
        wall (fun () ->
            Meanfield.Drive.fixed_point ~accelerate ~tol:1e-11 model)
      in
      {
        accelerate;
        wall_seconds;
        relaxation_time = fp.Meanfield.Drive.elapsed;
        et_error =
          Float.abs
            (Meanfield.Model.mean_time model fp.Meanfield.Drive.state
            -. Lazy.force exact);
      })
    [ false; true ]

let print _scope ppf =
  Table_fmt.render ppf
    ~title:
      (Printf.sprintf
         "E11a (ablation): truncation depth, simple WS at lambda=%.2f \
          (geometric closure active)"
         lambda)
    ~headers:[ "dim"; "abs err"; "rel err" ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.dim;
             Printf.sprintf "%.2e" r.abs_error;
             Printf.sprintf "%.2e" r.rel_error;
           ])
         (compute_depth ()))
    ();
  Table_fmt.render ppf
    ~title:"E11b (ablation): integrator choice (relax to 1e-11 residual)"
    ~headers:[ "stepper"; "dt"; "wall s"; "residual"; "E[T] err" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.stepper;
             (if Float.is_nan r.dt then "adaptive"
              else Printf.sprintf "%.2f" r.dt);
             Printf.sprintf "%.3f" r.wall_seconds;
             Printf.sprintf "%.1e" r.residual;
             Printf.sprintf "%.1e" r.et_error;
           ])
         (compute_solver ()))
    ();
  Table_fmt.render ppf
    ~title:
      "E11c (ablation): algebraic acceleration in the driver (Newton \
       corrector, extrapolation)"
    ~headers:[ "accelerate"; "wall s"; "relax time"; "E[T] err" ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_bool r.accelerate;
             Printf.sprintf "%.3f" r.wall_seconds;
             Printf.sprintf "%.0f" r.relaxation_time;
             Printf.sprintf "%.1e" r.et_error;
           ])
         (compute_accel ()))
    ()
