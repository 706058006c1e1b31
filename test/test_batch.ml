(* The batched lockstep fixed-point kernel — Numerics.Mat/Active, the
   batched Runge–Kutta steppers, column-wise Anderson mixing and
   Drive.fixed_point_batch — against the scalar hybrid solver it
   mirrors.

   The strongest checks are bit-level: the batched stepper replicates
   the scalar PI controller op for op and the hand-batched family
   kernels replicate the scalar derivatives op for op, so
   - one column integrated in lockstep must reproduce the scalar
     adaptive integration bit for bit,
   - a multi-column batch must reproduce each column's single-column
     run bit for bit (per-column state never leaks across columns), and
   - the scalar-bridge adapter and a hand-batched kernel must drive the
     whole solve to bit-identical results.
   Everything else is residual-certified agreement with the scalar
   solver across every family of the catalog. *)

open Meanfield
open Numerics

let vec_bits v = Array.map Int64.bits_of_float v

let check_col_bits msg (expect : Vec.t) (m : Mat.t) k =
  Alcotest.(check (array int64))
    msg (vec_bits expect)
    (Array.init (Mat.rows m) (fun i -> Int64.bits_of_float (Mat.get m i k)))

(* ---------- lockstep stepper vs scalar adaptive ---------- *)

(* One column in lockstep must be the scalar integration, bit for bit:
   same stages, same error norm, same PI controller decisions. The test
   system is a real model derivative (nonlinear, coupled). *)
let test_single_column_matches_scalar () =
  let model = Simple_ws.model ~lambda:0.8 ~dim:12 () in
  let sys = Model.as_system model in
  let y = model.Model.initial_empty () in
  y.(3) <- 0.4 (* off the trajectory the warm start would take *);
  let rtol = 1e-8 and atol = 1e-12 and dt0 = 0.02 in
  let y_scalar = Vec.copy y in
  let stats =
    Ode.adaptive ~rtol ~atol ~dt0 sys ~y:y_scalar ~t0:0.0 ~t1:7.5
  in
  let bderiv, _ = Model.batch_deriv [| model |] in
  let bsys = { Ode.bdim = model.Model.dim; bcols = 1; bderiv } in
  let ys = Mat.create ~rows:model.Model.dim ~cols:1 in
  Mat.set_col ys 0 y;
  let cols = Active.create 1 in
  let ws =
    Ode.adaptive_cols ~rtol ~atol ~dt0s:[| dt0 |] bsys ~ys ~cols ~t0:0.0
      ~t1:7.5
  in
  check_col_bits "final state bits" y_scalar ys 0;
  Alcotest.(check int) "accepted" stats.Ode.accepted ws.Ode.baccepted.(0);
  Alcotest.(check int) "rejected" stats.Ode.rejected ws.Ode.brejected.(0);
  Alcotest.(check int) "evals" stats.Ode.evals ws.Ode.bevals.(0);
  Alcotest.(check bool) "not failed" false ws.Ode.bfailed.(0)

(* Columns are independent: a K-column lockstep run of the hand-batched
   kernel must equal each column's own single-column run bit for bit,
   even though the columns accept/reject on different schedules and
   finish at different rounds. The single-column reference goes through
   the scalar-bridge adapter on a freshly built scalar model (a subset
   of a family batch cannot be re-batched — the hand kernel resolves
   each member's λ by column position), which also pins down that the
   hand kernel's arithmetic is the scalar derivative's, bit for bit. *)
let test_columns_do_not_interact () =
  let lambdas = [| 0.3; 0.7; 0.95 |] in
  let dim = 14 in
  let run cols_models =
    let k = Array.length cols_models in
    let bderiv, _ = Model.batch_deriv cols_models in
    let bsys = { Ode.bdim = dim; bcols = k; bderiv } in
    let ys = Mat.create ~rows:dim ~cols:k in
    Array.iteri
      (fun j m -> Mat.set_col ys j (m.Model.initial_empty ()))
      cols_models;
    let cols = Active.create k in
    ignore
      (Ode.adaptive_cols ~rtol:1e-7 ~atol:1e-12
         ~dt0s:(Array.make k 0.05) bsys ~ys ~cols ~t0:0.0 ~t1:12.0);
    ys
  in
  let together = run (Simple_ws.batch ~lambdas ~dim ()) in
  Array.iteri
    (fun j lambda ->
      let alone = run [| Simple_ws.model ~lambda ~dim () |] in
      check_col_bits
        (Printf.sprintf "column %d (lambda=%g)" j lambda)
        (Mat.col_copy alone 0) together j)
    lambdas

(* ---------- full solve: hand-batched families, multi-lambda ---------- *)

let certified_tol = 1e-11

let check_against_scalar name model fp =
  Alcotest.(check bool)
    (name ^ " converged") true fp.Drive.converged;
  let r = Drive.residual model fp.Drive.state in
  Alcotest.(check bool)
    (Printf.sprintf "%s residual %.2e certified" name r)
    true
    (r <= certified_tol *. 1.000001);
  let scalar = Drive.fixed_point ~tol:certified_tol model in
  let et = Model.mean_time model fp.Drive.state
  and es = Model.mean_time model scalar.Drive.state in
  let rel = Float.abs (et -. es) /. Float.max es 1.0 in
  (* both states sit at residual <= 1e-11; conditioning amplifies that
     into ~1e-7 state differences for the slowest-mixing models — the
     same bound as the scalar solver-agreement suite *)
  Alcotest.(check bool)
    (Printf.sprintf "%s agrees with scalar (rel %.2e)" name rel)
    true (rel < 1e-6)

let hand_batched_case name build_batch build_one lambdas () =
  let models = build_batch lambdas in
  let fps, stats = Drive.fixed_point_batch models in
  Alcotest.(check bool) (name ^ " hand-batched") true stats.Drive.hand_batched;
  Alcotest.(check bool) (name ^ " rounds counted") true (stats.Drive.rounds > 0);
  Array.iteri
    (fun k fp ->
      check_against_scalar
        (Printf.sprintf "%s lambda=%g" name lambdas.(k))
        (build_one lambdas.(k)) fp)
    fps

let grid = [| 0.55; 0.7; 0.85 |]

let test_simple_batch =
  hand_batched_case "simple"
    (fun lambdas -> Simple_ws.batch ~lambdas ~dim:40 ())
    (fun lambda -> Simple_ws.model ~lambda ~dim:40 ())
    grid

let test_erlang_batch =
  hand_batched_case "erlang"
    (fun lambdas -> Erlang_ws.batch ~lambdas ~stages:4 ~task_depth:20 ())
    (fun lambda -> Erlang_ws.model ~lambda ~stages:4 ~task_depth:20 ())
    grid

let test_steal_half_batch =
  hand_batched_case "steal-half"
    (fun lambdas -> Steal_half_ws.batch ~lambdas ~threshold:2 ~dim:40 ())
    (fun lambda -> Steal_half_ws.model ~lambda ~threshold:2 ~dim:40 ())
    grid

(* ---------- adapter path == hand-batched path, bitwise ---------- *)

let test_adapter_equals_hand_batched () =
  let lambdas = [| 0.6; 0.8; 0.95 |] in
  let hand = Simple_ws.batch ~lambdas ~dim:30 () in
  let bridged =
    Array.map (fun lambda -> Simple_ws.model ~lambda ~dim:30 ()) lambdas
  in
  let fh, sh = Drive.fixed_point_batch hand in
  let fb, sb = Drive.fixed_point_batch bridged in
  Alcotest.(check bool) "hand flag" true sh.Drive.hand_batched;
  Alcotest.(check bool) "bridge flag" false sb.Drive.hand_batched;
  Alcotest.(check int) "same rounds" sh.Drive.rounds sb.Drive.rounds;
  Array.iteri
    (fun k fph ->
      let fpb = fb.(k) in
      Alcotest.(check (array int64))
        (Printf.sprintf "column %d state bits" k)
        (vec_bits fph.Drive.state) (vec_bits fpb.Drive.state);
      Alcotest.(check int)
        (Printf.sprintf "column %d evals" k)
        fph.Drive.evals fpb.Drive.evals)
    fh

(* ---------- per-column freeze: a converged column is untouched ---------- *)

let test_converged_column_bit_frozen () =
  (* Column 0 starts at the closed-form fixed point: the first residual
     sweep retires it before any stepping, so the returned state must be
     the start, bit for bit, while column 1 still runs a full solve. *)
  let dim = 30 in
  let exact = Simple_ws.fixed_point_exact ~lambda:0.6 ~dim in
  let models = Simple_ws.batch ~lambdas:[| 0.6; 0.9 |] ~dim () in
  let fps, _ =
    Drive.fixed_point_batch
      ~starts:[| `State exact; `Warm |]
      models
  in
  Alcotest.(check (array int64))
    "exact-start column is bit-frozen" (vec_bits exact)
    (vec_bits fps.(0).Drive.state);
  Alcotest.(check bool) "frozen column converged" true fps.(0).Drive.converged;
  Alcotest.(check bool)
    "frozen column paid only sweeps" true
    (fps.(0).Drive.evals <= 3);
  Alcotest.(check bool) "other column converged" true fps.(1).Drive.converged;
  Alcotest.(check bool)
    "other column actually solved" true
    (fps.(1).Drive.evals > 10)

(* ---------- the catalog through the scalar-bridge adapter ---------- *)

let test_registry_zoo () =
  let lambda = 0.7 in
  List.iter
    (fun name ->
      let build () = Catalog.model ~name [] lambda in
      let models = [| build (); build (); build () |] in
      let mid =
        (* halfway between the empty and warm starts: still a valid
           monotone tail state, but on neither standard trajectory *)
        let e = models.(0).Model.initial_empty ()
        and w = models.(0).Model.initial_warm () in
        Array.mapi (fun i ei -> 0.5 *. (ei +. w.(i))) e
      in
      let fps, stats =
        Drive.fixed_point_batch
          ~starts:[| `Empty; `Warm; `State mid |]
          models
      in
      Alcotest.(check bool)
        (name ^ " uses the bridge") false stats.Drive.hand_batched;
      Array.iteri
        (fun k fp ->
          check_against_scalar
            (Printf.sprintf "%s[%d] at %g" name k lambda)
            models.(k) fp)
        fps)
    Catalog.names

let () =
  Alcotest.run "batch"
    [
      ( "lockstep-stepper",
        [
          Alcotest.test_case "rk45 single column bitwise" `Quick
            test_single_column_matches_scalar;
          Alcotest.test_case "columns independent bitwise" `Quick
            test_columns_do_not_interact;
        ] );
      ( "fixed-point-batch",
        [
          Alcotest.test_case "simple multi-lambda" `Quick test_simple_batch;
          Alcotest.test_case "erlang multi-lambda" `Quick test_erlang_batch;
          Alcotest.test_case "steal-half multi-lambda" `Quick
            test_steal_half_batch;
          Alcotest.test_case "adapter == hand-batched bitwise" `Quick
            test_adapter_equals_hand_batched;
          Alcotest.test_case "converged column bit-frozen" `Quick
            test_converged_column_bit_frozen;
          Alcotest.test_case "registry zoo via bridge" `Slow test_registry_zoo;
        ] );
    ]
