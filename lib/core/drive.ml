open Numerics

type solver = [ `Rk4 | `Rk45 | `Newton ]

let solver_name = function
  | `Rk4 -> "rk4"
  | `Rk45 -> "rk45"
  | `Newton -> "newton"

type fixed_point = {
  state : Vec.t;
  residual : float;
  converged : bool;
  elapsed : float;
  evals : int;
  iterations : int;
  method_used : solver;
}

let residual model state =
  let dy = Vec.create model.Model.dim in
  model.Model.deriv ~y:state ~dy;
  Vec.norm_inf dy

let initial model = function
  | `Empty -> model.Model.initial_empty ()
  | `Warm -> model.Model.initial_warm ()
  | `State s ->
      if Vec.dim s <> model.Model.dim then
        invalid_arg "Drive: start state has wrong dimension";
      Vec.copy s

(* Residual below which relaxation hands a cold solve to the Newton
   corrector: the dynamics are in the linear contraction regime, where
   the corrector's first step is already close to a Newton step. *)
let basin_residual = 1e-4
let default_basin = basin_residual

(* Relaxation tolerances: the adaptive path only has to *transport* the
   state into the basin of the fixed point (which convergence is checked
   against the exact derivative), so a mid-accuracy tolerance buys large
   steps without risking convergence to a displaced point. *)
let relax_rtol = 1e-7
let relax_atol = 1e-12

(* Chunk length between residual checks during relaxation. *)
let check_every_default = 25.0

let flat_tail model y =
  List.exists
    (fun (off, depth) ->
      let a = y.(off + depth) and b = y.(off + depth - 1) in
      b > 0.0
      && a >= 0.99999 *. b
      && a > 1e-18 *. Float.max y.(off) y.(off + 1))
    model.Model.segments

(* ---------- sparsity structures, analysed once per key ---------- *)

module Smap = Map.Make (String)

(* Every structure analysed in this process, by [Model.structure.key].
   Immutable maps behind an atomic: readers never lock, and a probe
   that loses a publishing race adopts the winner's (identical)
   analysis. *)
let structures : Sparse.structure Smap.t Atomic.t = Atomic.make Smap.empty
let probe_evals_total = Atomic.make 0

let structure_of model =
  let { Model.key; probe } = model.Model.structure in
  match Smap.find_opt key (Atomic.get structures) with
  | Some st -> st
  | None ->
      let n = model.Model.dim in
      let calls = ref 0 in
      let counted ~y ~dy =
        incr calls;
        probe ~y ~dy
      in
      let st =
        Sparse.analyse (Sparse.find_pattern ~n counted (Sparse.generic_state n))
      in
      ignore (Atomic.fetch_and_add probe_evals_total !calls);
      let rec publish () =
        let cur = Atomic.get structures in
        match Smap.find_opt key cur with
        | Some winner -> winner
        | None ->
            if Atomic.compare_and_set structures cur (Smap.add key st cur)
            then st
            else publish ()
      in
      publish ()

let probe_evals () = Atomic.get probe_evals_total

(* Float scratch for the corrector's Jacobians and factorisations, one
   per concurrently running corrector (a lock-free stack; every push
   conses a fresh cell, so a compare-and-set cannot be fooled by a
   recycled list). A work that is too small for the structure at hand
   is replaced by one sized to the larger of the two, so the stack
   holds works sized to the largest structure solved so far. *)
let spare_work : Sparse.work list Atomic.t = Atomic.make []

let rec take_work st =
  match Atomic.get spare_work with
  | [] -> Sparse.work st
  | w :: rest as cur ->
      if Atomic.compare_and_set spare_work cur rest then Sparse.grow st w
      else take_work st

let rec give_back w =
  let cur = Atomic.get spare_work in
  if not (Atomic.compare_and_set spare_work cur (w :: cur)) then give_back w

let max_newton_steps = 60

(* Pseudo-transient Newton: x ← x + δ with (σI − J)δ = f(x). σ follows
   the residual down (floored at 1e-7), so far from the answer the step
   is a damped implicit-Euler step and near it a Newton step; the σ term
   also keeps the rows a model holds at zero (s₀, conserved masses)
   well-posed. A step is taken only when it stays in the model's domain
   and does not double the residual; otherwise σ grows tenfold and the
   same Jacobian is refactorised. [x] and [fx] enter as the start and
   f(start) and leave as the last accepted iterate; returns its residual
   and whether it reached [tol] within [max_newton_steps] steps. *)
let newton model ~f ~tol ~iterations ~x ~fx =
  let n = model.Model.dim in
  let st = structure_of model in
  let w = take_work st in
  Fun.protect
    ~finally:(fun () -> give_back w)
    (fun () ->
      let trial = Vec.create n and ftrial = Vec.create n in
      let delta = Vec.create n in
      let xp = Vec.create n and fp = Vec.create n in
      let r = ref (Vec.norm_inf fx) in
      let sigma = ref (Float.max 1e-7 !r) in
      let jac_at_x = ref false in
      let steps = ref 0 in
      while !r > tol && !steps < max_newton_steps do
        incr steps;
        incr iterations;
        if not !jac_at_x then begin
          Sparse.jacobian st w ~f ~x ~fx ~xp ~fp;
          jac_at_x := true
        end;
        let accepted =
          Sparse.factor st w ~sigma:!sigma
          && begin
               Sparse.solve st w ~b:fx ~x:delta;
               for i = 0 to n - 1 do
                 let v = x.(i) +. delta.(i) in
                 trial.(i) <- (if v > 0.0 then v else 0.0)
               done;
               model.Model.validate trial
               && begin
                    f ~y:trial ~dy:ftrial;
                    Vec.norm_inf ftrial <= 2.0 *. !r
                  end
             end
        in
        if accepted then begin
          Vec.blit ~src:trial ~dst:x;
          Vec.blit ~src:ftrial ~dst:fx;
          r := Vec.norm_inf fx;
          sigma := Float.max 1e-7 !r;
          jac_at_x := false
        end
        else sigma := !sigma *. 10.0
      done;
      (!r, !r <= tol))

let fixed_point ?(tol = 1e-11) ?(max_time = 2e5) ?(accelerate = true)
    ?(solver = `Newton) ?(start = `Warm) ?(basin = basin_residual) model =
  let dt = model.Model.suggested_dt in
  let n = model.Model.dim in
  let y = initial model start in
  let base = Model.as_system model in
  let evals = ref 0 and iterations = ref 0 in
  let sys =
    {
      base with
      Ode.deriv =
        (fun ~t ~y ~dy ->
          incr evals;
          base.Ode.deriv ~t ~y ~dy);
    }
  in
  let dy = Vec.create n in
  let resid v =
    sys.Ode.deriv ~t:0.0 ~y:v ~dy;
    Vec.norm_inf dy
  in
  let ws = Ode.workspace sys in
  let elapsed = ref 0.0 in
  let budget_left () = max_time -. !elapsed in
  let finish ~r ~converged method_used =
    {
      state = y;
      residual = r;
      converged;
      elapsed = !elapsed;
      evals = !evals;
      iterations = !iterations;
      method_used;
    }
  in
  (* Advance [y] by [span] time units with the method's relaxation
     integrator (the systems are autonomous, so t0 = 0 throughout). *)
  let rk4_chunk span = Ode.integrate ~stepper:Ode.Rk4 sys ~y ~t0:0.0 ~t1:span ~dt in
  (* The adaptive tolerance follows the residual down: transporting into
     the basin only needs mid accuracy, but finishing a solve demands the
     integration-error floor sit well below the residual target, or the
     state hovers in a noise ball the tolerance wide. *)
  let cur_rtol = ref relax_rtol in
  let note_residual r =
    cur_rtol := Float.min relax_rtol (Float.max 1e-13 (r *. 0.01))
  in
  let rk45_chunk span =
    let atol = Float.max 1e-14 (relax_atol *. (!cur_rtol /. relax_rtol)) in
    ignore
      (Ode.adaptive ~rtol:!cur_rtol ~atol ~dt0:dt ~ws sys ~y
         ~t0:0.0 ~t1:span)
  in
  let check_every = check_every_default in
  (* The approach to the fixed point is asymptotically x(t) = x* + C·e^(-t/τ):
     three snapshots Δ apart determine x* by a dominant-mode extrapolation.
     Only accept it if it actually reduces the residual — near-degenerate
     differences can produce garbage. *)
  let try_accelerate chunk =
    let delta = 100.0 in
    let y0 = Vec.copy y in
    chunk delta;
    let y1 = Vec.copy y in
    chunk delta;
    let y2 = Vec.copy y in
    let r_plain = resid y2 in
    let best = ref y2 and best_r = ref r_plain in
    let consider candidate =
      if model.Model.validate candidate then begin
        let r = resid candidate in
        if r < !best_r then begin
          best := candidate;
          best_r := r
        end
      end
    in
    consider (Accel.extrapolate_dominant y0 y1 y2);
    consider (Accel.aitken_vec y0 y1 y2);
    Vec.blit ~src:!best ~dst:y;
    !best_r
  in
  (* The seed solver shape: integrate in chunks, and once inside the basin
     try Aitken/dominant-mode extrapolation between chunks. *)
  let relax_loop method_used chunk =
    let rec loop () =
      incr iterations;
      let r = resid y in
      note_residual r;
      if r <= tol then finish ~r ~converged:true method_used
      else if budget_left () <= 0.0 then finish ~r ~converged:false method_used
      else if accelerate && r < 1e-3 then begin
        let r' = try_accelerate chunk in
        elapsed := !elapsed +. 200.0;
        if r' <= tol then finish ~r:r' ~converged:true method_used
        else if r' >= r *. 0.999 then begin
          (* Extrapolation stalled; fall back to plain integration. *)
          let span = Float.min (budget_left ()) 200.0 in
          chunk span;
          elapsed := !elapsed +. span;
          loop ()
        end
        else loop ()
      end
      else begin
        let span = Float.min (budget_left ()) check_every in
        chunk span;
        elapsed := !elapsed +. span;
        loop ()
      end
    in
    loop ()
  in
  (* Hybrid: adaptive relaxation down to the hand-over residual [basin],
     then the Newton corrector. The corrector's answer is refused when
     it did not converge within its step budget or when a tail segment
     ends flat — the closure clamp makes any flat deep tail an exact
     zero of the truncated equations, which relaxation from a decaying
     state does not reach — and the relaxation path then finishes from
     the hand-over state. *)
  let solve_newton () =
    let r = ref (resid y) in
    incr iterations;
    while !r > basin && budget_left () > 0.0 do
      incr iterations;
      let span = Float.min (budget_left ()) check_every in
      rk45_chunk span;
      elapsed := !elapsed +. span;
      r := resid y
    done;
    if !r <= tol then finish ~r:!r ~converged:true `Rk45
    else if !r > basin then finish ~r:!r ~converged:false `Rk45
    else begin
      let x = Vec.copy y and fx = Vec.copy dy in
      let r', converged =
        newton model
          ~f:(fun ~y ~dy -> sys.Ode.deriv ~t:0.0 ~y ~dy)
          ~tol ~iterations ~x ~fx
      in
      if converged && not (flat_tail model x) then begin
        Vec.blit ~src:x ~dst:y;
        finish ~r:r' ~converged:true `Newton
      end
      else relax_loop `Rk45 rk45_chunk
    end
  in
  match (solver, accelerate) with
  | `Rk4, _ -> relax_loop `Rk4 rk4_chunk
  | `Rk45, _ -> relax_loop `Rk45 rk45_chunk
  | `Newton, true -> solve_newton ()
  | `Newton, false ->
      (* With acceleration ablated away the hybrid reduces to its
         relaxation phase. *)
      relax_loop `Rk45 rk45_chunk

type batch_stats = { rounds : int; hand_batched : bool }

(* Batched hybrid solver: the lockstep counterpart of {!fixed_point}.
   All K columns relax through the batched RK45
   transport (each with its own PI controller) until their residual
   enters their basin, then iterate column-wise Anderson mixing in
   lockstep; a column converges, escapes, or stalls on its own and drops
   out of the active set without holding the others back. Columns the
   lockstep path cannot finish (mixing escape/stall, integrator failure)
   are handed to the scalar {!fixed_point} from their best iterate, so
   the batch entry is never worse than scalar — just cheaper when the
   lockstep path wins, which is the common case on a λ grid.

   Every column's convergence is certified against its own scalar
   derivative at the end, so a batched result means exactly what a
   scalar result means. The per-column [evals] are scalar-equivalent
   (what a scalar solve of that column would have paid for the same
   sweeps); [rounds] in the returned stats counts batched derivative
   sweeps — the actual cost unit of the batch. *)
let fixed_point_batch ?(tol = 1e-11) ?(max_time = 2e5) ?starts ?basins models
    =
  let kk = Array.length models in
  if kk = 0 then invalid_arg "Drive.fixed_point_batch: empty batch";
  let n = models.(0).Model.dim in
  Array.iter
    (fun m ->
      if m.Model.dim <> n then
        invalid_arg "Drive.fixed_point_batch: batch members must share one dim")
    models;
  (match starts with
  | Some s when Array.length s <> kk ->
      invalid_arg "Drive.fixed_point_batch: starts length mismatch"
  | _ -> ());
  (match basins with
  | Some b when Array.length b <> kk ->
      invalid_arg "Drive.fixed_point_batch: basins length mismatch"
  | _ -> ());
  let dc, hand = Model.batch_deriv models in
  let rounds = ref 0 in
  let evals = Array.make kk 0 in
  let counting ~ys ~dys ~cols =
    incr rounds;
    for j = 0 to cols.Active.n - 1 do
      let k = cols.Active.idx.(j) in
      evals.(k) <- evals.(k) + 1
    done;
    dc ~ys ~dys ~cols
  in
  let sys = { Ode.bdim = n; bcols = kk; bderiv = counting } in
  let ws = Ode.batch_workspace sys in
  let ys = Mat.create ~rows:n ~cols:kk in
  for k = 0 to kk - 1 do
    let start = match starts with Some s -> s.(k) | None -> `Warm in
    Mat.set_col ys k (initial models.(k) start)
  done;
  let dys = Mat.create ~rows:n ~cols:kk in
  let res = Array.make kk infinity in
  let elapsed = Array.make kk 0.0 in
  let iterations = Array.make kk 0 in
  let basin_of k =
    match basins with Some b -> b.(k) | None -> basin_residual
  in
  let dt0s = Array.init kk (fun k -> models.(k).Model.suggested_dt) in
  (* Column status: Relaxing → Basin → Converged, with Fallback for
     anything the lockstep path gives up on and TimedOut mirroring the
     scalar not-converged exit. *)
  let status = Array.make kk `Relaxing in
  let act = Active.create kk in
  let residual_sweep cols =
    counting ~ys ~dys ~cols;
    for j = 0 to cols.Active.n - 1 do
      let k = cols.Active.idx.(j) in
      res.(k) <- Mat.col_norm_inf dys k;
      iterations.(k) <- iterations.(k) + 1
    done
  in
  let prune () =
    for j = act.Active.n - 1 downto 0 do
      let k = act.Active.idx.(j) in
      if res.(k) <= tol then begin
        status.(k) <- `Converged;
        Active.drop act j
      end
      else if res.(k) <= basin_of k then begin
        status.(k) <- `Basin;
        Active.drop act j
      end
    done
  in
  (* Phase A: lockstep adaptive transport into each column's basin. *)
  residual_sweep act;
  prune ();
  let t = ref 0.0 in
  while act.Active.n > 0 && !t < max_time do
    let span = Float.min check_every_default (max_time -. !t) in
    ignore
      (Ode.adaptive_cols ~rtol:relax_rtol ~atol:relax_atol
         ~dt0s ~ws sys ~ys ~cols:act ~t0:0.0 ~t1:span);
    t := !t +. span;
    for j = act.Active.n - 1 downto 0 do
      let k = act.Active.idx.(j) in
      elapsed.(k) <- elapsed.(k) +. span;
      if ws.Ode.bfailed.(k) then begin
        status.(k) <- `Fallback;
        Active.drop act j
      end
    done;
    if act.Active.n > 0 then begin
      residual_sweep act;
      prune ()
    end
  done;
  for j = act.Active.n - 1 downto 0 do
    let k = act.Active.idx.(j) in
    status.(k) <- `TimedOut;
    Active.drop act j
  done;
  (* Best iterates seen, per column — fallback restart points. *)
  let best = Mat.create ~rows:n ~cols:kk in
  let best_r = Array.make kk infinity in
  for k = 0 to kk - 1 do
    Mat.blit_col ~src:ys ~scol:k ~dst:best ~dcol:k;
    best_r.(k) <- res.(k)
  done;
  (* Phase B: lockstep Anderson mixing on g(s) = s + h·f(s) for the
     columns that reached their basin. *)
  let bcols = Active.create kk in
  for j = bcols.Active.n - 1 downto 0 do
    let k = bcols.Active.idx.(j) in
    if status.(k) <> `Basin then Active.drop bcols j
  done;
  if bcols.Active.n > 0 then begin
    let anderson = Accel.anderson_cols ~depth:5 ~beta:1.0 ~dim:n ~cols:kk () in
    let hs =
      Array.init kk (fun k ->
          let h = 4.0 *. dt0s.(k) in
          if h > 1.0 then 1.0 else h)
    in
    let xs = Mat.create ~rows:n ~cols:kk in
    let gxs = Mat.create ~rows:n ~cols:kk in
    let nexts = Mat.create ~rows:n ~cols:kk in
    let stall = Array.make kk 0 in
    let vbuf = Vec.create n in
    for j = 0 to bcols.Active.n - 1 do
      let k = bcols.Active.idx.(j) in
      Mat.blit_col ~src:ys ~scol:k ~dst:xs ~dcol:k
    done;
    let max_iters = 600 and stall_limit = 60 in
    let iter = ref 0 in
    while bcols.Active.n > 0 && !iter < max_iters do
      incr iter;
      counting ~ys:xs ~dys ~cols:bcols;
      for j = bcols.Active.n - 1 downto 0 do
        let k = bcols.Active.idx.(j) in
        let rx = Mat.col_norm_inf dys k in
        iterations.(k) <- iterations.(k) + 1;
        if rx <= tol then begin
          Mat.blit_col ~src:xs ~scol:k ~dst:ys ~dcol:k;
          res.(k) <- rx;
          status.(k) <- `Converged;
          Active.drop bcols j
        end
        else if (not (Float.is_finite rx)) || rx > 1.0 then begin
          (* Mixing escaped the basin entirely (transient excursions
             above the basin threshold are normal; O(1) is escape). *)
          status.(k) <- `Fallback;
          Active.drop bcols j
        end
        else begin
          if rx < best_r.(k) *. 0.9 then begin
            Mat.blit_col ~src:xs ~scol:k ~dst:best ~dcol:k;
            best_r.(k) <- rx;
            stall.(k) <- 0
          end
          else stall.(k) <- stall.(k) + 1;
          if stall.(k) >= stall_limit then begin
            status.(k) <- `Fallback;
            Active.drop bcols j
          end
        end
      done;
      if bcols.Active.n > 0 then begin
        for i = 0 to n - 1 do
          for j = 0 to bcols.Active.n - 1 do
            let k = bcols.Active.idx.(j) in
            Mat.set gxs i k (Mat.get xs i k +. (hs.(k) *. Mat.get dys i k))
          done
        done;
        Accel.anderson_cols_step anderson ~xs ~gxs ~dst:nexts ~cols:bcols;
        for j = 0 to bcols.Active.n - 1 do
          let k = bcols.Active.idx.(j) in
          for i = 0 to n - 1 do
            let v = Mat.get nexts i k in
            let v = if v < 0.0 then 0.0 else v in
            vbuf.(i) <- v
          done;
          if models.(k).Model.validate vbuf then
            Mat.set_col xs k vbuf
          else begin
            (* Rejected iterate: drop this column's history and restart
               from a dt-sized forward-Euler step. *)
            Accel.anderson_cols_reset anderson k;
            for i = 0 to n - 1 do
              Mat.set xs i k (Mat.get xs i k +. (dt0s.(k) *. Mat.get dys i k))
            done;
            stall.(k) <- stall.(k) + 1
          end
        done
      end
    done;
    for j = bcols.Active.n - 1 downto 0 do
      let k = bcols.Active.idx.(j) in
      status.(k) <- `Fallback;
      Active.drop bcols j
    done
  end;
  (* Scalar escape hatch + certification: every batch-converged column
     is re-certified against its own scalar derivative; anything else
     (fallback, drift past tolerance) finishes through the scalar
     solver from its best iterate. *)
  let out = Array.make kk None in
  for k = 0 to kk - 1 do
    match status.(k) with
    | `Converged ->
        let s = Mat.col_copy ys k in
        let r = residual models.(k) s in
        evals.(k) <- evals.(k) + 1;
        if r <= tol then res.(k) <- r
        else begin
          let fp =
            fixed_point ~tol ~max_time ~start:(`State s)
              ~basin:(basin_of k) models.(k)
          in
          out.(k) <-
            Some
              {
                fp with
                evals = fp.evals + evals.(k);
                iterations = fp.iterations + iterations.(k);
                elapsed = fp.elapsed +. elapsed.(k);
              }
        end
    | `Fallback ->
        let s = Mat.col_copy best k in
        let fp =
          fixed_point ~tol ~max_time ~start:(`State s) ~basin:(basin_of k)
            models.(k)
        in
        out.(k) <-
          Some
            {
              fp with
              evals = fp.evals + evals.(k);
              iterations = fp.iterations + iterations.(k);
              elapsed = fp.elapsed +. elapsed.(k);
            }
    | _ -> ()
  done;
  let fps =
    Array.init kk (fun k ->
        match out.(k) with
        | Some fp -> fp
        | None ->
            {
              state = Mat.col_copy ys k;
              residual = res.(k);
              converged = status.(k) = `Converged;
              elapsed = elapsed.(k);
              evals = evals.(k);
              iterations = iterations.(k);
              method_used = `Rk45;
            })
  in
  (fps, { rounds = !rounds; hand_batched = hand })

let trajectory ?(dt = 0.05) ?(adaptive = false) ?(rtol = 1e-10)
    ?(start = `Empty) ~horizon ~sample_every model =
  let y = initial model start in
  let sys = Model.as_system model in
  let samples = ref [] in
  if adaptive then begin
    if sample_every <= 0.0 then
      invalid_arg "Drive.trajectory: sample_every must be positive";
    let ws = Ode.workspace sys in
    samples := [ (0.0, Vec.copy y) ];
    let t = ref 0.0 in
    while !t < horizon -. 1e-14 do
      let target = Float.min horizon (!t +. sample_every) in
      ignore
        (Ode.adaptive ~rtol ~atol:1e-14 ~dt0:dt ~ws sys ~y
           ~t0:!t ~t1:target);
      t := target;
      samples := (!t, Vec.copy y) :: !samples
    done
  end
  else
    Ode.observe sys ~y ~t0:0.0 ~t1:horizon ~dt ~sample_every (fun t s ->
        samples := (t, Vec.copy s) :: !samples);
  List.rev !samples
