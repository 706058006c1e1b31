(* Tests for the numerics substrate: vectors, ODE integrators, root
   finding, acceleration, interpolation and quadrature. *)

open Numerics

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ---------- Vec ---------- *)

let test_vec_create () =
  let v = Vec.create 5 in
  Alcotest.(check int) "dim" 5 (Vec.dim v);
  Array.iter (fun x -> check_float "zero" 0.0 x) v

let test_vec_axpy () =
  let y = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  Vec.axpy y ~a:2.0 ~x:(Vec.of_list [ 10.0; 20.0; 30.0 ]);
  check_float "axpy 0" 21.0 y.(0);
  check_float "axpy 1" 42.0 y.(1);
  check_float "axpy 2" 63.0 y.(2)

let test_vec_combine_aliasing () =
  let u = Vec.of_list [ 1.0; 2.0 ] in
  let v = Vec.of_list [ 3.0; 4.0 ] in
  Vec.combine ~dst:u u ~a:0.5 v;
  check_float "combine aliased 0" 2.5 u.(0);
  check_float "combine aliased 1" 4.0 u.(1)

let test_vec_norms () =
  let v = Vec.of_list [ 3.0; -4.0 ] in
  check_float "inf" 4.0 (Vec.norm_inf v);
  check_float "l1" 7.0 (Vec.norm_l1 v);
  check_float "l2" 5.0 (Vec.norm_l2 v)

let test_vec_dist () =
  let u = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  let v = Vec.of_list [ 2.0; 0.0; 3.0 ] in
  check_float "dist inf" 2.0 (Vec.dist_inf u v);
  check_float "dist l1" 3.0 (Vec.dist_l1 u v)

let test_vec_sum_compensated () =
  (* 1 + 1e-16 added 10^6 times loses the small parts naively *)
  let n = 100_000 in
  let v = Array.make (n + 1) 1e-16 in
  v.(0) <- 1.0;
  let s = Vec.sum v in
  check_close 1e-18 "kahan" (1.0 +. (float_of_int n *. 1e-16)) s

let test_vec_mismatch () =
  Alcotest.check_raises "axpy mismatch"
    (Invalid_argument "Vec.axpy: dimension mismatch (2 vs 3)") (fun () ->
      Vec.axpy (Vec.create 2) ~a:1.0 ~x:(Vec.create 3))

let test_vec_linspace () =
  let v = Vec.linspace 0.0 1.0 5 in
  check_float "first" 0.0 v.(0);
  check_float "mid" 0.5 v.(2);
  check_float "last" 1.0 v.(4)

let test_vec_clamp () =
  let v = Vec.of_list [ -1.0; 0.5; 2.0 ] in
  Vec.clamp v ~lo:0.0 ~hi:1.0;
  check_float "lo" 0.0 v.(0);
  check_float "mid" 0.5 v.(1);
  check_float "hi" 1.0 v.(2)

(* ---------- Ode ---------- *)

(* dy/dt = -y, y(0) = 1: y(t) = e^-t. *)
let decay =
  {
    Ode.dim = 1;
    deriv = (fun ~t:_ ~y ~dy -> dy.(0) <- -.y.(0));
  }

(* Circular oscillator: x' = -y, y' = x preserves x² + y². *)
let oscillator =
  {
    Ode.dim = 2;
    deriv =
      (fun ~t:_ ~y ~dy ->
        dy.(0) <- -.y.(1);
        dy.(1) <- y.(0));
  }

let test_euler_order () =
  (* Halving dt should roughly halve Euler's error. *)
  let run dt =
    let y = [| 1.0 |] in
    Ode.integrate ~stepper:Ode.Euler decay ~y ~t0:0.0 ~t1:1.0 ~dt;
    Float.abs (y.(0) -. exp (-1.0))
  in
  let e1 = run 0.01 and e2 = run 0.005 in
  Alcotest.(check bool) "first order" true (e1 /. e2 > 1.8 && e1 /. e2 < 2.2)

let test_rk4_accuracy () =
  let y = [| 1.0 |] in
  Ode.integrate decay ~y ~t0:0.0 ~t1:1.0 ~dt:0.1;
  (* global error ~ C·h^4 with C ≈ 2e-3 here *)
  check_close 1e-6 "rk4 decay" (exp (-1.0)) y.(0)

let test_rk4_order () =
  let run dt =
    let y = [| 1.0 |] in
    Ode.integrate decay ~y ~t0:0.0 ~t1:1.0 ~dt;
    Float.abs (y.(0) -. exp (-1.0))
  in
  let e1 = run 0.1 and e2 = run 0.05 in
  Alcotest.(check bool) "fourth order" true (e1 /. e2 > 12.0 && e1 /. e2 < 20.0)

let test_midpoint_accuracy () =
  let y = [| 1.0 |] in
  Ode.integrate ~stepper:Ode.Midpoint decay ~y ~t0:0.0 ~t1:1.0 ~dt:0.01;
  check_close 1e-5 "midpoint decay" (exp (-1.0)) y.(0)

let test_rk4_oscillator_energy () =
  let y = [| 1.0; 0.0 |] in
  Ode.integrate oscillator ~y ~t0:0.0 ~t1:(8.0 *. Float.pi) ~dt:0.01;
  check_close 1e-6 "energy" 1.0 ((y.(0) *. y.(0)) +. (y.(1) *. y.(1)));
  check_close 1e-5 "phase x" 1.0 y.(0);
  check_close 1e-5 "phase y" 0.0 y.(1)

let test_final_step_lands_exactly () =
  (* t1 not an integer number of steps: final shortened step must land on
     t1, not overshoot. *)
  let y = [| 1.0 |] in
  Ode.integrate decay ~y ~t0:0.0 ~t1:0.95 ~dt:0.2;
  check_close 1e-4 "landing" (exp (-0.95)) y.(0)

let test_adaptive_accuracy () =
  let y = [| 1.0 |] in
  let s = Ode.adaptive ~rtol:1e-10 ~atol:1e-14 decay ~y ~t0:0.0 ~t1:2.0 in
  check_close 1e-9 "adaptive decay" (exp (-2.0)) y.(0);
  Alcotest.(check bool) "adaptive took steps" true (s.Ode.accepted > 5)

let test_adaptive_adapts () =
  (* Loose tolerance should need far fewer steps than a tight one. *)
  let run rtol =
    let y = [| 1.0; 0.0 |] in
    (Ode.adaptive ~rtol ~atol:1e-14 oscillator ~y ~t0:0.0 ~t1:20.0)
      .Ode.accepted
  in
  let loose = run 1e-4 and tight = run 1e-11 in
  Alcotest.(check bool) "adaptive step count" true (tight > 2 * loose)

let test_adaptive_stats_account_for_every_eval () =
  (* FSAL bookkeeping: one eval to seed k1, then 6 fresh stages per
     attempt, accepted or rejected. *)
  let y = [| 1.0; 0.0 |] in
  let s = Ode.adaptive ~rtol:1e-8 ~atol:1e-12 oscillator ~y ~t0:0.0 ~t1:10.0 in
  Alcotest.(check int) "rk45 evals" (1 + (6 * (s.Ode.accepted + s.Ode.rejected)))
    s.Ode.evals

let test_adaptive_rejection_occurs () =
  (* A wildly optimistic initial step must fail the error test (and the
     run still lands on the right answer). *)
  let y = [| 1.0 |] in
  let s = Ode.adaptive ~rtol:1e-10 ~atol:1e-14 ~dt0:5.0 decay ~y ~t0:0.0 ~t1:2.0 in
  Alcotest.(check bool) "some rejection" true (s.Ode.rejected > 0);
  check_close 1e-9 "still accurate" (exp (-2.0)) y.(0)

let test_adaptive_dt_max_clamps () =
  let y = [| 1.0 |] in
  let s =
    Ode.adaptive ~rtol:1e-3 ~atol:1e-6 ~dt_max:0.01 decay ~y ~t0:0.0 ~t1:1.0
  in
  Alcotest.(check bool) "at least 1/dt_max steps" true (s.Ode.accepted >= 100)

let test_adaptive_lands_exactly_on_t1 () =
  (* dy/dt = 1: y(t1) = t1 exactly iff the final step is shortened to
     land on t1 rather than overshooting it. *)
  let unit_rate = { Ode.dim = 1; deriv = (fun ~t:_ ~y:_ ~dy -> dy.(0) <- 1.0) } in
  let y = [| 0.0 |] in
  ignore (Ode.adaptive ~rtol:1e-6 unit_rate ~y ~t0:0.0 ~t1:0.777);
  check_close 1e-12 "landing" 0.777 y.(0)

let test_adaptive_min_step_fails () =
  (* Forbidding steps below 0.5 at a tight tolerance must abort rather
     than loop or silently degrade. *)
  match
    Ode.adaptive ~rtol:1e-12 ~atol:1e-14 ~dt0:1.0 ~dt_min:0.5 oscillator
      ~y:[| 1.0; 0.0 |] ~t0:0.0 ~t1:20.0
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

let test_observe_samples () =
  let samples = ref [] in
  let y = [| 1.0 |] in
  Ode.observe decay ~y ~t0:0.0 ~t1:1.0 ~dt:0.01 ~sample_every:0.25
    (fun t s -> samples := (t, s.(0)) :: !samples);
  let samples = List.rev !samples in
  Alcotest.(check int) "sample count" 5 (List.length samples);
  let t_last, y_last = List.nth samples 4 in
  check_close 1e-9 "last t" 1.0 t_last;
  check_close 1e-6 "last y" (exp (-1.0)) y_last

let test_relax_linear () =
  (* dy/dt = b - y relaxes to b. *)
  let sys =
    { Ode.dim = 3;
      deriv =
        (fun ~t:_ ~y ~dy ->
          dy.(0) <- 1.0 -. y.(0);
          dy.(1) <- 2.0 -. y.(1);
          dy.(2) <- -3.0 -. y.(2)) }
  in
  let y = [| 0.0; 0.0; 0.0 |] in
  (match Ode.relax ~tol:1e-12 sys ~y with
  | Ode.Converged r -> Alcotest.(check bool) "residual" true (r <= 1e-12)
  | Ode.Timed_out _ -> Alcotest.fail "did not converge");
  check_close 1e-10 "y0" 1.0 y.(0);
  check_close 1e-10 "y1" 2.0 y.(1);
  check_close 1e-10 "y2" (-3.0) y.(2)

let test_integrate_rejects_bad_dt () =
  Alcotest.check_raises "dt" (Invalid_argument "Ode.integrate: dt must be positive")
    (fun () -> Ode.integrate decay ~y:[| 1.0 |] ~t0:0.0 ~t1:1.0 ~dt:0.0)

(* ---------- Root ---------- *)

let test_bisect () =
  let r = Root.bisect (fun x -> (x *. x) -. 2.0) ~a:0.0 ~b:2.0 in
  check_close 1e-10 "sqrt2" (sqrt 2.0) r

let test_brent () =
  let r = Root.brent (fun x -> cos x -. x) ~a:0.0 ~b:1.0 in
  check_close 1e-10 "dottie" 0.7390851332151607 r

let test_brent_hard () =
  (* nearly flat function *)
  let f x = ((x -. 1.0) ** 3.0) +. 1e-6 in
  let r = Root.brent f ~a:0.0 ~b:2.0 in
  check_close 1e-6 "cubic" (1.0 -. (1e-6 ** (1.0 /. 3.0))) r

let test_newton () =
  let r =
    Root.newton
      ~f:(fun x -> (x *. x) -. 2.0)
      ~df:(fun x -> 2.0 *. x)
      1.0
  in
  check_close 1e-12 "sqrt2" (sqrt 2.0) r

let test_no_bracket () =
  Alcotest.check_raises "no bracket" Root.No_bracket (fun () ->
      ignore (Root.bisect (fun x -> (x *. x) +. 1.0) ~a:(-1.0) ~b:1.0))

let test_quadratic_stable () =
  (* x² - (1+λ)x + λ² with λ = 0.5: root (1.5 - sqrt 1.25)/2 *)
  let r = Root.solve_quadratic_smaller ~b:(-1.5) ~c:0.25 in
  check_close 1e-14 "pi2" ((1.5 -. sqrt 1.25) /. 2.0) r;
  (* extreme root separation: x² - 1e8 x + 1 = 0, small root ~ 1e-8 *)
  let r = Root.solve_quadratic_smaller ~b:(-1e8) ~c:1.0 in
  check_close 1e-18 "tiny root" 1e-8 r

(* ---------- Accel ---------- *)

let test_aitken_geometric () =
  (* x_k = L + c r^k: Aitken recovers L exactly. *)
  let l = 3.0 and c = 2.0 and r = 0.8 in
  let x k = l +. (c *. (r ** float_of_int k)) in
  check_close 1e-10 "aitken" l (Accel.aitken (x 0) (x 1) (x 2))

let test_aitken_vec () =
  let v k = [| 1.0 +. (0.5 ** k); 2.0 -. (2.0 *. (0.25 ** k)) |] in
  let e = Accel.aitken_vec (v 1.0) (v 2.0) (v 3.0) in
  check_close 1e-10 "vec0" 1.0 e.(0);
  check_close 1e-10 "vec1" 2.0 e.(1)

let test_dominant_ratio () =
  let v k = [| 5.0 +. (3.0 *. (0.6 ** k)); -1.0 +. (0.6 ** k) |] in
  let rho = Accel.dominant_ratio (v 0.0) (v 1.0) (v 2.0) in
  check_close 1e-10 "rho" 0.6 rho;
  let e = Accel.extrapolate_dominant (v 0.0) (v 1.0) (v 2.0) in
  check_close 1e-10 "limit0" 5.0 e.(0);
  check_close 1e-10 "limit1" (-1.0) e.(1)

let test_dominant_ratio_degenerate_guard () =
  (* Regression: a vanishing first difference makes dominant_ratio nan;
     ratio_usable must reject it (and ±∞ and non-contracting ratios) so
     extrapolate_dominant falls back to the last iterate instead of
     propagating nan into the state. *)
  let v = [| 1.0; 2.0 |] in
  let rho = Accel.dominant_ratio v v [| 1.5; 2.5 |] in
  Alcotest.(check bool) "nan ratio" true (Float.is_nan rho);
  Alcotest.(check bool) "nan unusable" false (Accel.ratio_usable rho);
  Alcotest.(check bool) "inf unusable" false (Accel.ratio_usable infinity);
  Alcotest.(check bool) "non-contracting unusable" false
    (Accel.ratio_usable 1.5);
  Alcotest.(check bool) "unit-circle boundary unusable" false
    (Accel.ratio_usable 1.0);
  Alcotest.(check bool) "contracting usable" true (Accel.ratio_usable 0.6);
  let e = Accel.extrapolate_dominant v v [| 1.5; 2.5 |] in
  check_close 1e-12 "fallback 0" 1.5 e.(0);
  check_close 1e-12 "fallback 1" 2.5 e.(1);
  Array.iter
    (fun x -> Alcotest.(check bool) "finite" true (Float.is_finite x))
    e

(* ---------- Sparse ---------- *)

(* A banded field with two dense columns, the mean-field shape: row i
   reads levels i-1, i, i+1 and levels 1 and 2. *)
let banded_field ~y ~dy =
  let n = Vec.dim y in
  for i = 0 to n - 1 do
    let left = if i > 0 then y.(i - 1) else 0.0 in
    let right = if i + 1 < n then y.(i + 1) else 0.0 in
    dy.(i) <-
      (-3.0 *. y.(i)) +. (left *. right) +. (0.5 *. y.(1))
      +. (0.1 *. sin y.(2))
  done

let banded_jacobian y =
  let n = Vec.dim y in
  let m = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    m.(i).(i) <- m.(i).(i) -. 3.0;
    if i > 0 && i + 1 < n then begin
      m.(i).(i - 1) <- m.(i).(i - 1) +. y.(i + 1);
      m.(i).(i + 1) <- m.(i).(i + 1) +. y.(i - 1)
    end;
    m.(i).(1) <- m.(i).(1) +. 0.5;
    m.(i).(2) <- m.(i).(2) +. (0.1 *. cos y.(2))
  done;
  m

(* Gaussian elimination with partial pivoting on a copy. *)
let dense_solve a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  for c = 0 to n - 1 do
    let p = ref c in
    for r = c + 1 to n - 1 do
      if Float.abs a.(r).(c) > Float.abs a.(!p).(c) then p := r
    done;
    let t = a.(c) in
    a.(c) <- a.(!p);
    a.(!p) <- t;
    let t = b.(c) in
    b.(c) <- b.(!p);
    b.(!p) <- t;
    for r = c + 1 to n - 1 do
      let l = a.(r).(c) /. a.(c).(c) in
      for k = c to n - 1 do
        a.(r).(k) <- a.(r).(k) -. (l *. a.(c).(k))
      done;
      b.(r) <- b.(r) -. (l *. b.(c))
    done
  done;
  let x = Array.make n 0.0 in
  for r = n - 1 downto 0 do
    let s = ref b.(r) in
    for k = r + 1 to n - 1 do
      s := !s -. (a.(r).(k) *. x.(k))
    done;
    x.(r) <- !s /. a.(r).(r)
  done;
  x

let test_sparse_pattern_and_colours () =
  let n = 40 in
  let p = Sparse.find_pattern ~n banded_field (Sparse.generic_state n) in
  let has i j =
    let found = ref false in
    for e = p.Sparse.colptr.(j) to p.Sparse.colptr.(j + 1) - 1 do
      if p.Sparse.rowidx.(e) = i then found := true
    done;
    !found
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let expected =
        i = j || j = 1 || j = 2 || (i > 0 && i + 1 < n && abs (i - j) = 1)
      in
      Alcotest.(check bool) (Printf.sprintf "entry (%d, %d)" i j) expected
        (has i j)
    done
  done;
  let st = Sparse.analyse p in
  (* the two dense columns take a colour each, the band three *)
  Alcotest.(check int) "colours" 5 (Sparse.colours st);
  Alcotest.(check int) "dense columns" 2 (Sparse.dense_columns st);
  Alcotest.(check bool) "fill stays near the pattern" true
    (Sparse.fill st <= 2 * Sparse.nnz st)

let test_sparse_jacobian_and_solve () =
  let n = 40 in
  let st =
    Sparse.analyse
      (Sparse.find_pattern ~n banded_field (Sparse.generic_state n))
  in
  let w = Sparse.work st in
  let x = Vec.init n (fun i -> 0.5 +. (0.3 *. sin (float_of_int i))) in
  let fx = Vec.create n in
  banded_field ~y:x ~dy:fx;
  let calls = ref 0 in
  let f ~y ~dy =
    incr calls;
    banded_field ~y ~dy
  in
  Sparse.jacobian st w ~f ~x ~fx ~xp:(Vec.create n) ~fp:(Vec.create n);
  Alcotest.(check int) "one call per colour" (Sparse.colours st) !calls;
  let exact = banded_jacobian x and fd = Sparse.to_dense st w in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "J(%d, %d)" i j)
        true
        (Float.abs (fd.(i).(j) -. exact.(i).(j)) <= 1e-6)
    done
  done;
  List.iter
    (fun sigma ->
      Alcotest.(check bool) "factorises" true (Sparse.factor st w ~sigma);
      let b = Vec.init n (fun i -> cos (float_of_int (3 * i))) in
      let got = Vec.create n in
      Sparse.solve st w ~b ~x:got;
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                (if i = j then sigma else 0.0) -. fd.(i).(j)))
      in
      let want = dense_solve a b in
      Alcotest.(check bool)
        (Printf.sprintf "sigma %g matches the dense solve" sigma)
        true
        (Vec.dist_inf got want <= 1e-10 *. Vec.norm_inf want))
    [ 1e-7; 1e-2; 10.0 ]

let test_sparse_zero_pivot_fails () =
  (* a field with an identically zero row and column: at sigma = 0 the
     pivot vanishes, any positive sigma restores it *)
  let f ~y ~dy =
    let n = Vec.dim y in
    dy.(0) <- 0.0;
    for i = 1 to n - 1 do
      dy.(i) <- -.y.(i) +. (0.25 *. y.(i - 1))
    done
  in
  let n = 8 in
  let st = Sparse.analyse (Sparse.find_pattern ~n f (Sparse.generic_state n)) in
  let w = Sparse.work st in
  let x = Vec.make n 0.5 and fx = Vec.create n in
  f ~y:x ~dy:fx;
  Sparse.jacobian st w ~f ~x ~fx ~xp:(Vec.create n) ~fp:(Vec.create n);
  Alcotest.(check bool) "zero pivot" false (Sparse.factor st w ~sigma:0.0);
  Alcotest.(check bool) "regularised" true (Sparse.factor st w ~sigma:1e-7)

(* Every served family's structure, at its fixed point at λ 0.7: the
   sparse LU of (σI − J) solves what a dense partial-pivoting elimination
   of the same matrix solves, to 1e-10 relative at the corrector's
   σ = 1e-4 and 1e-2. At its floor σ = 1e-7 the matrix's condition
   number reaches ~1e7 (erlang), which bounds the agreement of any two
   solvers near 1e-9, so there the check is the backward error. *)
let test_sparse_lu_per_structure () =
  List.iter
    (fun name ->
      let fam =
        match Serve.Families.resolve ~name [] with
        | Ok f -> f
        | Error e -> failwith e
      in
      let m = fam.Serve.Families.build 0.7 in
      let n = m.Meanfield.Model.dim in
      let x = (Meanfield.Drive.fixed_point m).Meanfield.Drive.state in
      let st = Meanfield.Drive.structure_of m in
      let w = Sparse.work st in
      let fx = Vec.create n in
      m.Meanfield.Model.deriv ~y:x ~dy:fx;
      Sparse.jacobian st w ~f:m.Meanfield.Model.deriv ~x ~fx
        ~xp:(Vec.create n) ~fp:(Vec.create n);
      let jac = Sparse.to_dense st w in
      List.iter
        (fun sigma ->
          Alcotest.(check bool)
            (Printf.sprintf "%s factorises at sigma %g" name sigma)
            true (Sparse.factor st w ~sigma);
          let b = Vec.init n (fun i -> cos (float_of_int (7 * i))) in
          let got = Vec.create n in
          Sparse.solve st w ~b ~x:got;
          let a =
            Array.init n (fun i ->
                Array.init n (fun j ->
                    (if i = j then sigma else 0.0) -. jac.(i).(j)))
          in
          if sigma >= 1e-4 then begin
            let want = dense_solve a b in
            let rel = Vec.dist_inf got want /. Vec.norm_inf want in
            Alcotest.(check bool)
              (Printf.sprintf "%s at sigma %g: rel %.2e" name sigma rel)
              true (rel <= 1e-10)
          end
          else begin
            let norm_a =
              Array.fold_left
                (fun acc row ->
                  Float.max acc (Array.fold_left (fun s v -> s +. Float.abs v) 0.0 row))
                0.0 a
            in
            let resid =
              Array.mapi
                (fun i row ->
                  let s = ref (-.b.(i)) in
                  Array.iteri (fun j v -> s := !s +. (v *. got.(j))) row;
                  !s)
                a
            in
            let backward =
              Vec.norm_inf resid /. (norm_a *. Vec.norm_inf got)
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s at sigma %g: backward error %.2e" name
                 sigma backward)
              true (backward <= 1e-13)
          end)
        [ 1e-7; 1e-4; 1e-2 ])
    Meanfield.Catalog.names

(* ---------- Interp ---------- *)

let test_interp_linear () =
  let it =
    Interp.linear ~xs:(Vec.of_list [ 0.0; 1.0; 3.0 ])
      ~ys:(Vec.of_list [ 0.0; 2.0; 0.0 ])
  in
  check_float "node" 2.0 (Interp.eval it 1.0);
  check_float "between" 1.0 (Interp.eval it 0.5);
  check_float "second segment" 1.0 (Interp.eval it 2.0);
  check_float "clamp left" 0.0 (Interp.eval it (-5.0));
  check_float "clamp right" 0.0 (Interp.eval it 99.0)

let test_interp_pchip_reproduces_nodes () =
  let xs = Vec.of_list [ 0.0; 0.5; 1.5; 2.0; 4.0 ] in
  let ys = Vec.of_list [ 1.0; 0.8; 0.3; 0.25; 0.1 ] in
  let it = Interp.pchip ~xs ~ys in
  Array.iteri
    (fun i x -> check_close 1e-12 "node value" ys.(i) (Interp.eval it x))
    xs

let test_interp_pchip_monotone () =
  (* monotone decreasing data: the interpolant must never increase *)
  let xs = Vec.linspace 0.0 8.0 9 in
  let ys = Vec.init 9 (fun i -> 0.7 ** float_of_int i) in
  let it = Interp.pchip ~xs ~ys in
  let prev = ref infinity in
  for i = 0 to 800 do
    let v = Interp.eval it (float_of_int i /. 100.0) in
    Alcotest.(check bool) "non-increasing" true (v <= !prev +. 1e-12);
    prev := v
  done

let test_interp_rejects_bad_input () =
  Alcotest.check_raises "non-increasing xs"
    (Invalid_argument "Interp.linear: abscissae must be strictly increasing")
    (fun () ->
      ignore
        (Interp.linear ~xs:(Vec.of_list [ 0.0; 0.0 ])
           ~ys:(Vec.of_list [ 1.0; 2.0 ])))

let test_interp_pchip_cols_matches_per_component () =
  (* the one-pass column evaluation is the same Fritsch–Carlson scheme as
     the scalar interpolant, so component k must agree bitwise with a
     per-component pchip over the k-th row *)
  let xs = Vec.of_list [ 0.5; 0.62; 0.7; 0.81; 0.9 ] in
  let dim = 6 in
  let cols =
    Array.init (Vec.dim xs) (fun i ->
        let l = xs.(i) in
        (* geometric-ish tails, decreasing in the component index *)
        Vec.init dim (fun k -> (l ** float_of_int (k + 1)) +. 0.01 *. l))
  in
  let queries = [ 0.5; 0.55; 0.62; 0.66; 0.75; 0.9; 0.3; 1.2 ] in
  List.iter
    (fun x ->
      let v = Interp.pchip_cols ~xs ~cols x in
      Alcotest.(check int) "dimension" dim (Vec.dim v);
      for k = 0 to dim - 1 do
        let ys = Vec.init (Vec.dim xs) (fun i -> cols.(i).(k)) in
        let scalar = Interp.eval (Interp.pchip ~xs ~ys) x in
        check_float
          (Printf.sprintf "component %d at x=%g" k x)
          scalar v.(k)
      done)
    queries

let test_interp_pchip_cols_rejects_bad_input () =
  let xs = Vec.of_list [ 0.0; 1.0; 2.0 ] in
  let cols = Array.init 3 (fun _ -> Vec.make 4 0.0) in
  Alcotest.check_raises "column count mismatch"
    (Invalid_argument "Interp.pchip_cols: column count mismatch")
    (fun () ->
      ignore (Interp.pchip_cols ~xs ~cols:(Array.sub cols 0 2) 0.5));
  Alcotest.check_raises "ragged columns"
    (Invalid_argument "Interp.pchip_cols: ragged columns")
    (fun () ->
      let ragged = [| Vec.make 4 0.0; Vec.make 3 0.0; Vec.make 4 0.0 |] in
      ignore (Interp.pchip_cols ~xs ~cols:ragged 0.5))

(* ---------- Quadrature ---------- *)

let test_trapezoid_samples () =
  (* linear function integrates exactly *)
  let xs = Vec.of_list [ 0.0; 0.5; 2.0 ] in
  let ys = Vec.map (fun x -> (2.0 *. x) +. 1.0) xs in
  check_close 1e-12 "linear exact" 6.0 (Quadrature.trapezoid_samples ~xs ~ys)

let test_simpson () =
  check_close 1e-10 "x^3" 0.25
    (Quadrature.simpson (fun x -> x ** 3.0) ~a:0.0 ~b:1.0 ~n:16);
  check_close 1e-6 "sin" 2.0
    (Quadrature.simpson sin ~a:0.0 ~b:Float.pi ~n:64)

let test_adaptive_simpson () =
  check_close 1e-9 "exp" (exp 1.0 -. 1.0)
    (Quadrature.adaptive_simpson exp ~a:0.0 ~b:1.0);
  (* sharp peak: adaptivity required *)
  let f x = 1.0 /. (1e-4 +. (x *. x)) in
  let exact = 2.0 /. 0.01 *. atan (1.0 /. 0.01) in
  check_close 1e-4 "peaked"
    exact
    (Quadrature.adaptive_simpson ~tol:1e-12 f ~a:(-1.0) ~b:1.0)

let qcheck_pchip_within_data_range =
  QCheck.Test.make ~count:200 ~name:"pchip stays within data range"
    QCheck.(list_of_size Gen.(int_range 3 12) (float_range 0.0 10.0))
    (fun ys ->
      let n = List.length ys in
      let xs = Vec.linspace 0.0 (float_of_int (n - 1)) n in
      let ys = Vec.of_list ys in
      let it = Interp.pchip ~xs ~ys in
      let lo = Array.fold_left min ys.(0) ys in
      let hi = Array.fold_left max ys.(0) ys in
      let ok = ref true in
      for i = 0 to 200 do
        let x = float_of_int i *. float_of_int (n - 1) /. 200.0 in
        let v = Interp.eval it x in
        if v < lo -. 1e-9 || v > hi +. 1e-9 then ok := false
      done;
      !ok)

(* ---------- properties ---------- *)

let qcheck_quadratic =
  QCheck.Test.make ~count:500 ~name:"solve_quadratic_smaller is a root"
    QCheck.(pair (float_bound_inclusive 10.0) (float_bound_inclusive 0.9))
    (fun (b, lam) ->
      (* construct quadratics of the paper's shape: x² - (1+λ)x + q *)
      let b = -.(1.0 +. lam) -. (b /. 100.0) in
      let c = lam *. lam in
      let x = Root.solve_quadratic_smaller ~b ~c in
      Float.abs ((x *. x) +. (b *. x) +. c) < 1e-9)

let qcheck_aitken_exact =
  QCheck.Test.make ~count:200 ~name:"aitken exact on geometric sequences"
    QCheck.(triple (float_range (-5.0) 5.0) (float_range 0.1 3.0)
              (float_range (-0.9) 0.9))
    (fun (l, c, r) ->
      QCheck.assume (Float.abs r > 1e-3 && Float.abs c > 1e-3);
      let x k = l +. (c *. (r ** float_of_int k)) in
      Float.abs (Accel.aitken (x 0) (x 1) (x 2) -. l) < 1e-6)

let qcheck_vec_dist_triangle =
  QCheck.Test.make ~count:200 ~name:"l1 distance triangle inequality"
    QCheck.(triple (list_of_size Gen.(return 8) (float_range (-10.) 10.))
              (list_of_size Gen.(return 8) (float_range (-10.) 10.))
              (list_of_size Gen.(return 8) (float_range (-10.) 10.)))
    (fun (a, b, c) ->
      let a = Array.of_list a and b = Array.of_list b and c = Array.of_list c in
      Vec.dist_l1 a c <= Vec.dist_l1 a b +. Vec.dist_l1 b c +. 1e-9)

let () =
  Alcotest.run "numerics"
    [
      ( "vec",
        [
          Alcotest.test_case "create" `Quick test_vec_create;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "combine aliasing" `Quick
            test_vec_combine_aliasing;
          Alcotest.test_case "norms" `Quick test_vec_norms;
          Alcotest.test_case "dist" `Quick test_vec_dist;
          Alcotest.test_case "compensated sum" `Quick
            test_vec_sum_compensated;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
          Alcotest.test_case "linspace" `Quick test_vec_linspace;
          Alcotest.test_case "clamp" `Quick test_vec_clamp;
          QCheck_alcotest.to_alcotest qcheck_vec_dist_triangle;
        ] );
      ( "ode",
        [
          Alcotest.test_case "euler is first order" `Quick test_euler_order;
          Alcotest.test_case "rk4 accuracy" `Quick test_rk4_accuracy;
          Alcotest.test_case "rk4 is fourth order" `Quick test_rk4_order;
          Alcotest.test_case "midpoint accuracy" `Quick
            test_midpoint_accuracy;
          Alcotest.test_case "oscillator energy" `Quick
            test_rk4_oscillator_energy;
          Alcotest.test_case "final step lands exactly" `Quick
            test_final_step_lands_exactly;
          (* the Dormand–Prince 5(4) pair, as Ode.adaptive *)
          Alcotest.test_case "dopri5 accuracy" `Quick test_adaptive_accuracy;
          Alcotest.test_case "dopri5 adapts step" `Quick test_adaptive_adapts;
          Alcotest.test_case "adaptive stats account evals" `Quick
            test_adaptive_stats_account_for_every_eval;
          Alcotest.test_case "adaptive rejects bad steps" `Quick
            test_adaptive_rejection_occurs;
          Alcotest.test_case "adaptive honours dt_max" `Quick
            test_adaptive_dt_max_clamps;
          Alcotest.test_case "adaptive lands exactly on t1" `Quick
            test_adaptive_lands_exactly_on_t1;
          Alcotest.test_case "adaptive fails below dt_min" `Quick
            test_adaptive_min_step_fails;
          Alcotest.test_case "observe sampling" `Quick test_observe_samples;
          Alcotest.test_case "relax to steady state" `Quick
            test_relax_linear;
          Alcotest.test_case "rejects bad dt" `Quick
            test_integrate_rejects_bad_dt;
        ] );
      ( "root",
        [
          Alcotest.test_case "bisection" `Quick test_bisect;
          Alcotest.test_case "brent" `Quick test_brent;
          Alcotest.test_case "brent hard case" `Quick test_brent_hard;
          Alcotest.test_case "newton" `Quick test_newton;
          Alcotest.test_case "no bracket raises" `Quick test_no_bracket;
          Alcotest.test_case "stable quadratic" `Quick
            test_quadratic_stable;
          QCheck_alcotest.to_alcotest qcheck_quadratic;
        ] );
      ( "accel",
        [
          Alcotest.test_case "aitken geometric" `Quick
            test_aitken_geometric;
          Alcotest.test_case "aitken vector" `Quick test_aitken_vec;
          Alcotest.test_case "dominant ratio" `Quick test_dominant_ratio;
          Alcotest.test_case "degenerate ratio guard" `Quick
            test_dominant_ratio_degenerate_guard;
          QCheck_alcotest.to_alcotest qcheck_aitken_exact;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "pattern and colours" `Quick
            test_sparse_pattern_and_colours;
          Alcotest.test_case "jacobian and solve" `Quick
            test_sparse_jacobian_and_solve;
          Alcotest.test_case "zero pivot fails" `Quick
            test_sparse_zero_pivot_fails;
          Alcotest.test_case "lu per served structure" `Quick
            test_sparse_lu_per_structure;
        ] );
      ( "interp",
        [
          Alcotest.test_case "linear" `Quick test_interp_linear;
          Alcotest.test_case "pchip nodes" `Quick
            test_interp_pchip_reproduces_nodes;
          Alcotest.test_case "pchip monotone" `Quick
            test_interp_pchip_monotone;
          Alcotest.test_case "rejects bad input" `Quick
            test_interp_rejects_bad_input;
          Alcotest.test_case "pchip_cols matches per-component" `Quick
            test_interp_pchip_cols_matches_per_component;
          Alcotest.test_case "pchip_cols rejects bad input" `Quick
            test_interp_pchip_cols_rejects_bad_input;
          QCheck_alcotest.to_alcotest qcheck_pchip_within_data_range;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "trapezoid samples" `Quick
            test_trapezoid_samples;
          Alcotest.test_case "simpson" `Quick test_simpson;
          Alcotest.test_case "adaptive simpson" `Quick
            test_adaptive_simpson;
        ] );
    ]
