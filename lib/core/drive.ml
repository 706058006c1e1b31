open Numerics

type solver = [ `Rk4 | `Rk45 | `Anderson ]

let solver_name = function
  | `Rk4 -> "rk4"
  | `Rk45 -> "rk45"
  | `Anderson -> "anderson"

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

(* Residual level below which the iteration is close enough to the fixed
   point for algebraic acceleration (Anderson, Aitken) to be trustworthy:
   the dynamics are in the linear contraction regime. *)
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

let fixed_point ?(tol = 1e-11) ?(max_time = 2e5) ?(accelerate = true)
    ?(solver = `Anderson) ?(start = `Warm) ?(basin = basin_residual) model =
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
  (* Hybrid: short adaptive relaxation into the basin, then Anderson
     mixing on the algebraic map g(s) = s + h·f(s) (whose fixed points
     are exactly the zeros of f). Falls back to the relaxation path when
     Anderson stalls, produces invalid states, or diverges. *)
  let solve_anderson () =
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
      let st = Accel.anderson ~depth:5 ~beta:1.0 n in
      (* Map step for g(s) = s + h·f(s): roughly one mean service time.
         Larger than the integration dt — the mixing does not need Euler
         stability, and a bigger h lets the residual history span the
         slow modes (stage chains) that a dt-sized step barely excites. *)
      let h = Float.min 1.0 (4.0 *. dt) in
      let x = Vec.copy y in
      let gx = Vec.create n in
      let best = Vec.copy y and best_r = ref !r in
      let max_iters = 600 and stall_limit = 60 in
      let fallback () =
        (* The relaxation + Aitken path, restarted from the best mixing
           iterate: integration damps every mode uniformly, which is
           exactly what a depth-m history cannot do when the spectrum is
           wide (long stage chains), and the extrapolation then finishes
           the dominant mode. *)
        Vec.blit ~src:best ~dst:y;
        relax_loop `Rk45 rk45_chunk
      in
      let rec iterate k stall =
        if k >= max_iters || stall >= stall_limit then fallback ()
        else begin
          incr iterations;
          sys.Ode.deriv ~t:0.0 ~y:x ~dy;
          let rx = Vec.norm_inf dy in
          if rx <= tol then begin
            Vec.blit ~src:x ~dst:y;
            finish ~r:rx ~converged:true `Anderson
          end
          else if (not (Float.is_finite rx)) || rx > 1.0 then
            (* The mixing escaped the basin entirely: abandon it.
               (Transient excursions above [basin_residual] are normal —
               type-II mixing recovers through the least squares — so
               only an O(1) residual counts as escape.) *)
            fallback ()
          else begin
            let stall =
              if rx < !best_r *. 0.9 then begin
                Vec.blit ~src:x ~dst:best;
                best_r := rx;
                0
              end
              else stall + 1
            in
            for i = 0 to n - 1 do
              gx.(i) <- x.(i) +. (h *. dy.(i))
            done;
            let next = Accel.anderson_step st ~x ~gx in
            (* Project onto the domain: every state component is a
               population fraction, so negatives are always algebraic
               overshoot (the deep tail sits at the scale of the mixing
               noise) and zero is the nearest admissible value. *)
            for i = 0 to n - 1 do
              if next.(i) < 0.0 then next.(i) <- 0.0
            done;
            if model.Model.validate next then begin
              Vec.blit ~src:next ~dst:x;
              iterate (k + 1) stall
            end
            else begin
              (* Rejected iterate: drop the history that produced it and
                 restart from a dt-sized forward-Euler step — the mixing
                 step h is too large for a stable plain iteration. *)
              Accel.anderson_reset st;
              for i = 0 to n - 1 do
                x.(i) <- x.(i) +. (dt *. dy.(i))
              done;
              iterate (k + 1) (stall + 1)
            end
          end
        end
      in
      iterate 0 0
    end
  in
  match (solver, accelerate) with
  | `Rk4, _ -> relax_loop `Rk4 rk4_chunk
  | `Rk45, _ -> relax_loop `Rk45 rk45_chunk
  | `Anderson, true -> solve_anderson ()
  | `Anderson, false ->
      (* With acceleration ablated away the hybrid reduces to its
         relaxation phase. *)
      relax_loop `Rk45 rk45_chunk

type batch_stats = { rounds : int; hand_batched : bool }

(* Batched hybrid solver: the lockstep analogue of {!fixed_point} with
   [solver = `Anderson]. All K columns relax through the batched RK45
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
  let meth = Array.make kk `Rk45 in
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
          meth.(k) <- `Anderson;
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
              method_used = meth.(k);
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
