type system = {
  dim : int;
  deriv : t:float -> y:Vec.t -> dy:Vec.t -> unit;
}

(* Seven slots cover the Dormand-Prince pair, the largest consumer; the
   fixed-step methods reuse a prefix of the same workspace. *)
type workspace = {
  k1 : Vec.t;
  k2 : Vec.t;
  k3 : Vec.t;
  k4 : Vec.t;
  k5 : Vec.t;
  k6 : Vec.t;
  k7 : Vec.t;
  tmp : Vec.t;
  trial : Vec.t;
}

let workspace sys =
  let v () = Vec.create sys.dim in
  {
    k1 = v ();
    k2 = v ();
    k3 = v ();
    k4 = v ();
    k5 = v ();
    k6 = v ();
    k7 = v ();
    tmp = v ();
    trial = v ();
  }

let euler_step sys ws ~t ~dt y =
  sys.deriv ~t ~y ~dy:ws.k1;
  Vec.axpy y ~a:dt ~x:ws.k1

let midpoint_step sys ws ~t ~dt y =
  sys.deriv ~t ~y ~dy:ws.k1;
  Vec.combine ~dst:ws.tmp y ~a:(dt /. 2.0) ws.k1;
  sys.deriv ~t:(t +. (dt /. 2.0)) ~y:ws.tmp ~dy:ws.k2;
  Vec.axpy y ~a:dt ~x:ws.k2

let rk4_step sys ws ~t ~dt y =
  let h2 = dt /. 2.0 in
  sys.deriv ~t ~y ~dy:ws.k1;
  Vec.combine ~dst:ws.tmp y ~a:h2 ws.k1;
  sys.deriv ~t:(t +. h2) ~y:ws.tmp ~dy:ws.k2;
  Vec.combine ~dst:ws.tmp y ~a:h2 ws.k2;
  sys.deriv ~t:(t +. h2) ~y:ws.tmp ~dy:ws.k3;
  Vec.combine ~dst:ws.tmp y ~a:dt ws.k3;
  sys.deriv ~t:(t +. dt) ~y:ws.tmp ~dy:ws.k4;
  let c = dt /. 6.0 in
  for i = 0 to sys.dim - 1 do
    y.(i) <-
      y.(i)
      +. (c
          *. (ws.k1.(i) +. (2.0 *. ws.k2.(i)) +. (2.0 *. ws.k3.(i))
             +. ws.k4.(i)))
  done

type stepper = Euler | Midpoint | Rk4

let step_fn = function
  | Euler -> euler_step
  | Midpoint -> midpoint_step
  | Rk4 -> rk4_step

let integrate ?(stepper = Rk4) sys ~y ~t0 ~t1 ~dt =
  if dt <= 0.0 then invalid_arg "Ode.integrate: dt must be positive";
  let step = step_fn stepper in
  let ws = workspace sys in
  let t = ref t0 in
  while !t < t1 -. 1e-14 do
    let h = Float.min dt (t1 -. !t) in
    step sys ws ~t:!t ~dt:h y;
    t := !t +. h
  done

let observe ?(stepper = Rk4) sys ~y ~t0 ~t1 ~dt ~sample_every f =
  if sample_every <= 0.0 then
    invalid_arg "Ode.observe: sample_every must be positive";
  f t0 y;
  let t = ref t0 in
  let next_sample = ref (t0 +. sample_every) in
  let step = step_fn stepper in
  let ws = workspace sys in
  while !t < t1 -. 1e-14 do
    let target = Float.min t1 !next_sample in
    while !t < target -. 1e-14 do
      let h = Float.min dt (target -. !t) in
      step sys ws ~t:!t ~dt:h y;
      t := !t +. h
    done;
    f !t y;
    next_sample := !next_sample +. sample_every
  done

(* Dormand-Prince 5(4) tableau. *)
let a21 = 1.0 /. 5.0
let a31 = 3.0 /. 40.0
let a32 = 9.0 /. 40.0
let a41 = 44.0 /. 45.0
let a42 = -56.0 /. 15.0
let a43 = 32.0 /. 9.0
let a51 = 19372.0 /. 6561.0
let a52 = -25360.0 /. 2187.0
let a53 = 64448.0 /. 6561.0
let a54 = -212.0 /. 729.0
let a61 = 9017.0 /. 3168.0
let a62 = -355.0 /. 33.0
let a63 = 46732.0 /. 5247.0
let a64 = 49.0 /. 176.0
let a65 = -5103.0 /. 18656.0
let b1 = 35.0 /. 384.0
let b3 = 500.0 /. 1113.0
let b4 = 125.0 /. 192.0
let b5 = -2187.0 /. 6784.0
let b6 = 11.0 /. 84.0

(* 5th-order minus 4th-order weights: error estimator coefficients. *)
let e1 = b1 -. (5179.0 /. 57600.0)
let e3 = b3 -. (7571.0 /. 16695.0)
let e4 = b4 -. (393.0 /. 640.0)
let e5 = b5 -. (-92097.0 /. 339200.0)
let e6 = b6 -. (187.0 /. 2100.0)
let e7 = -1.0 /. 40.0

(* Bogacki-Shampine 3(2) tableau: the cheap embedded pair (3 fresh stages
   per step with FSAL) for loose-tolerance relaxation phases. *)
let bs_a21 = 1.0 /. 2.0
let bs_a32 = 3.0 /. 4.0
let bs_b1 = 2.0 /. 9.0
let bs_b2 = 1.0 /. 3.0
let bs_b3 = 4.0 /. 9.0

(* 3rd-order minus 2nd-order weights. *)
let bs_e1 = bs_b1 -. (7.0 /. 24.0)
let bs_e2 = bs_b2 -. (1.0 /. 4.0)
let bs_e3 = bs_b3 -. (1.0 /. 3.0)
let bs_e4 = -1.0 /. 8.0

type pair = Rk23 | Rk45

type stats = { accepted : int; rejected : int; evals : int }

let no_stats = { accepted = 0; rejected = 0; evals = 0 }

(* One Dormand-Prince 5(4) attempt from (t, y) with step h. ws.k1 must
   already hold f(t, y); fills ws.trial with the 5th-order solution,
   ws.k7 with f(t+h, trial) (the FSAL stage), and returns the scaled
   max-norm error estimate. 6 derivative evaluations. *)
let dp_attempt sys ws ~rtol ~atol ~t ~h y =
  let n = sys.dim in
  for i = 0 to n - 1 do
    ws.tmp.(i) <- y.(i) +. (h *. a21 *. ws.k1.(i))
  done;
  sys.deriv ~t:(t +. (0.2 *. h)) ~y:ws.tmp ~dy:ws.k2;
  for i = 0 to n - 1 do
    ws.tmp.(i) <- y.(i) +. (h *. ((a31 *. ws.k1.(i)) +. (a32 *. ws.k2.(i))))
  done;
  sys.deriv ~t:(t +. (0.3 *. h)) ~y:ws.tmp ~dy:ws.k3;
  for i = 0 to n - 1 do
    ws.tmp.(i) <-
      y.(i)
      +. (h
          *. ((a41 *. ws.k1.(i)) +. (a42 *. ws.k2.(i)) +. (a43 *. ws.k3.(i))))
  done;
  sys.deriv ~t:(t +. (0.8 *. h)) ~y:ws.tmp ~dy:ws.k4;
  for i = 0 to n - 1 do
    ws.tmp.(i) <-
      y.(i)
      +. (h
          *. ((a51 *. ws.k1.(i)) +. (a52 *. ws.k2.(i)) +. (a53 *. ws.k3.(i))
             +. (a54 *. ws.k4.(i))))
  done;
  sys.deriv ~t:(t +. (8.0 /. 9.0 *. h)) ~y:ws.tmp ~dy:ws.k5;
  for i = 0 to n - 1 do
    ws.tmp.(i) <-
      y.(i)
      +. (h
          *. ((a61 *. ws.k1.(i)) +. (a62 *. ws.k2.(i)) +. (a63 *. ws.k3.(i))
             +. (a64 *. ws.k4.(i)) +. (a65 *. ws.k5.(i))))
  done;
  sys.deriv ~t:(t +. h) ~y:ws.tmp ~dy:ws.k6;
  for i = 0 to n - 1 do
    ws.trial.(i) <-
      y.(i)
      +. (h
          *. ((b1 *. ws.k1.(i)) +. (b3 *. ws.k3.(i)) +. (b4 *. ws.k4.(i))
             +. (b5 *. ws.k5.(i)) +. (b6 *. ws.k6.(i))))
  done;
  sys.deriv ~t:(t +. h) ~y:ws.trial ~dy:ws.k7;
  let err = ref 0.0 in
  for i = 0 to n - 1 do
    let e =
      h
      *. ((e1 *. ws.k1.(i)) +. (e3 *. ws.k3.(i)) +. (e4 *. ws.k4.(i))
         +. (e5 *. ws.k5.(i)) +. (e6 *. ws.k6.(i)) +. (e7 *. ws.k7.(i)))
    in
    let scale =
      atol +. (rtol *. Float.max (Float.abs y.(i)) (Float.abs ws.trial.(i)))
    in
    let r = Float.abs e /. scale in
    if r > !err then err := r
  done;
  !err

(* One Bogacki-Shampine 3(2) attempt; same contract as {!dp_attempt} with
   the FSAL stage landing in ws.k4. 3 derivative evaluations. *)
let bs_attempt sys ws ~rtol ~atol ~t ~h y =
  let n = sys.dim in
  for i = 0 to n - 1 do
    ws.tmp.(i) <- y.(i) +. (h *. bs_a21 *. ws.k1.(i))
  done;
  sys.deriv ~t:(t +. (0.5 *. h)) ~y:ws.tmp ~dy:ws.k2;
  for i = 0 to n - 1 do
    ws.tmp.(i) <- y.(i) +. (h *. bs_a32 *. ws.k2.(i))
  done;
  sys.deriv ~t:(t +. (0.75 *. h)) ~y:ws.tmp ~dy:ws.k3;
  for i = 0 to n - 1 do
    ws.trial.(i) <-
      y.(i)
      +. (h
          *. ((bs_b1 *. ws.k1.(i)) +. (bs_b2 *. ws.k2.(i))
             +. (bs_b3 *. ws.k3.(i))))
  done;
  sys.deriv ~t:(t +. h) ~y:ws.trial ~dy:ws.k4;
  let err = ref 0.0 in
  for i = 0 to n - 1 do
    let e =
      h
      *. ((bs_e1 *. ws.k1.(i)) +. (bs_e2 *. ws.k2.(i)) +. (bs_e3 *. ws.k3.(i))
         +. (bs_e4 *. ws.k4.(i)))
    in
    let scale =
      atol +. (rtol *. Float.max (Float.abs y.(i)) (Float.abs ws.trial.(i)))
    in
    let r = Float.abs e /. scale in
    if r > !err then err := r
  done;
  !err

let adaptive ?(pair = Rk45) ?(rtol = 1e-8) ?(atol = 1e-12) ?dt0 ?dt_min
    ?(dt_max = infinity) ?(max_steps = 10_000_000) ?ws sys ~y ~t0 ~t1 =
  if dt_max <= 0.0 then invalid_arg "Ode.adaptive: dt_max must be positive";
  if t1 <= t0 then no_stats
  else begin
    let ws = match ws with Some w -> w | None -> workspace sys in
    let attempt, fsal_stage, embedded_order, fresh_evals =
      match pair with
      | Rk45 -> (dp_attempt, ws.k7, 4, 6)
      | Rk23 -> (bs_attempt, ws.k4, 2, 3)
    in
    (* PI (Gustafsson) controller exponents for an embedded pair whose
       error estimate has order q: err ~ h^(q+1). *)
    let expo = 1.0 /. float_of_int (embedded_order + 1) in
    let alpha = 0.7 *. expo and beta = 0.4 *. expo in
    let t = ref t0 in
    let dt =
      ref
        (Float.min dt_max
           (match dt0 with Some h -> h | None -> (t1 -. t0) /. 100.0))
    in
    let floor_dt t = match dt_min with
      | Some m -> m
      | None -> 1e-14 *. Float.max 1.0 (Float.abs t)
    in
    let accepted = ref 0 and rejected = ref 0 and evals = ref 0 in
    (* Memory of the previous accepted error for the PI term; Hairer's
       err_old floor keeps the controller from over-reacting to a nearly
       exact step. *)
    let err_prev = ref 1e-4 in
    let just_rejected = ref false in
    (* FSAL: after an accepted step the last stage is f(t, y) for the new
       (t, y); only the very first step pays for k1. *)
    sys.deriv ~t:!t ~y ~dy:ws.k1;
    incr evals;
    while !t < t1 -. 1e-14 do
      if !accepted + !rejected >= max_steps then
        failwith "Ode.adaptive: max_steps exceeded";
      if !dt < floor_dt !t then failwith "Ode.adaptive: step size underflow";
      let h = Float.min !dt (t1 -. !t) in
      let err = attempt sys ws ~rtol ~atol ~t:!t ~h y in
      evals := !evals + fresh_evals;
      if err <= 1.0 then begin
        Vec.blit ~src:ws.trial ~dst:y;
        Vec.blit ~src:fsal_stage ~dst:ws.k1;
        t := !t +. h;
        incr accepted;
        let factor =
          if not (Float.is_finite err) then 0.2
          else if err <= 1e-300 then 5.0
          else
            Float.min 5.0
              (Float.max 0.2
                 (0.9 *. (err ** -.alpha) *. (!err_prev ** beta)))
        in
        (* No growth immediately after a rejection: the controller has
           just learned the local error is at the acceptance boundary. *)
        let factor = if !just_rejected then Float.min 1.0 factor else factor in
        just_rejected := false;
        err_prev := Float.max err 1e-4;
        dt := Float.min dt_max (h *. factor)
      end
      else begin
        incr rejected;
        just_rejected := true;
        let factor =
          if not (Float.is_finite err) then 0.2
          else Float.min 1.0 (Float.max 0.2 (0.9 *. (err ** -.expo)))
        in
        dt := h *. factor
      end
    done;
    { accepted = !accepted; rejected = !rejected; evals = !evals }
  end

let dopri5 ?rtol ?atol ?dt0 ?max_steps sys ~y ~t0 ~t1 =
  (adaptive ~pair:Rk45 ?rtol ?atol ?dt0 ?max_steps sys ~y ~t0 ~t1).accepted

(* ---------- batched lockstep steppers ---------- *)

type batch_system = {
  bdim : int;
  bcols : int;
  bderiv : ys:Mat.t -> dys:Mat.t -> cols:Active.t -> unit;
}

type batch_workspace = {
  bk1 : Mat.t;
  bk2 : Mat.t;
  bk3 : Mat.t;
  bk4 : Mat.t;
  bk5 : Mat.t;
  bk6 : Mat.t;
  bk7 : Mat.t;
  btmp : Mat.t;
  btrial : Mat.t;
  bts : float array;  (* per-column current time *)
  bhs : float array;  (* per-column proposed step *)
  bhh : float array;  (* per-column step actually attempted this round *)
  berr : float array;  (* per-column scaled error of the last attempt *)
  berr_prev : float array;
  bjust_rejected : bool array;
  bworking : Active.t;  (* columns still integrating, inside one call *)
  baccepted : int array;
  brejected : int array;
  bevals : int array;  (* scalar-equivalent derivative evaluations *)
  bfailed : bool array;
  mutable brounds : int;  (* batched derivative sweeps — the cost unit *)
}

let batch_workspace sys =
  let m () = Mat.create ~rows:sys.bdim ~cols:sys.bcols in
  let fa v = Array.make sys.bcols v in
  {
    bk1 = m ();
    bk2 = m ();
    bk3 = m ();
    bk4 = m ();
    bk5 = m ();
    bk6 = m ();
    bk7 = m ();
    btmp = m ();
    btrial = m ();
    bts = fa 0.0;
    bhs = fa 0.0;
    bhh = fa 0.0;
    berr = fa 0.0;
    berr_prev = fa 1e-4;
    bjust_rejected = Array.make sys.bcols false;
    bworking = Active.create sys.bcols;
    baccepted = Array.make sys.bcols 0;
    brejected = Array.make sys.bcols 0;
    bevals = Array.make sys.bcols 0;
    bfailed = Array.make sys.bcols false;
    brounds = 0;
  }

(* Retire columns that exhausted the step budget or underflowed the step
   size. The scalar path raises; a batch must not die on its slowest
   member, so failures are recorded per column and the column drops out. *)
let batch_guard ws ~max_steps =
  let act = ws.bworking in
  (* descending with swap-remove: a drop at [j] swaps in an
     already-visited column, so each column is examined exactly once;
     the [j < n] guard only defends against drops shrinking the set
     past the loop counter. (A [ref] counter would allocate — this is
     a zero-alloc root.) *)
  for j = act.Active.n - 1 downto 0 do
    if j < act.Active.n then begin
      let k = Array.unsafe_get act.Active.idx j in
      let steps =
        Array.unsafe_get ws.baccepted k + Array.unsafe_get ws.brejected k
      in
      let t = Array.unsafe_get ws.bts k in
      let at = Float.abs t in
      let floor_dt = 1e-14 *. (if at > 1.0 then at else 1.0) in
      if steps >= max_steps || Array.unsafe_get ws.bhs k < floor_dt then begin
        Array.unsafe_set ws.bfailed k true;
        Active.drop act j
      end
    end
  done

(* One lockstep Dormand-Prince 5(4) attempt for every working column,
   each with its own step ws.bhh.(k). ws.bk1 columns must hold f(y);
   fills ws.btrial (5th-order solutions), ws.bk7 (FSAL stages) and
   ws.berr (scaled max-norm error estimates). Six derivative sweeps
   shared by the whole batch. Loops are row-outer so each sweep touches
   stride-1 runs across the active columns. *)
let dp_attempt_cols sys ws ~rtol ~atol (ys : Mat.t) =
  let n = sys.bdim in
  let act = ws.bworking in
  let na = act.Active.n in
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btmp i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h *. a21 *. Bigarray.Array2.unsafe_get ws.bk1 i k))
    done
  done;
  sys.bderiv ~ys:ws.btmp ~dys:ws.bk2 ~cols:act;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btmp i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h
            *. ((a31 *. Bigarray.Array2.unsafe_get ws.bk1 i k)
               +. (a32 *. Bigarray.Array2.unsafe_get ws.bk2 i k))))
    done
  done;
  sys.bderiv ~ys:ws.btmp ~dys:ws.bk3 ~cols:act;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btmp i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h
            *. ((a41 *. Bigarray.Array2.unsafe_get ws.bk1 i k)
               +. (a42 *. Bigarray.Array2.unsafe_get ws.bk2 i k)
               +. (a43 *. Bigarray.Array2.unsafe_get ws.bk3 i k))))
    done
  done;
  sys.bderiv ~ys:ws.btmp ~dys:ws.bk4 ~cols:act;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btmp i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h
            *. ((a51 *. Bigarray.Array2.unsafe_get ws.bk1 i k)
               +. (a52 *. Bigarray.Array2.unsafe_get ws.bk2 i k)
               +. (a53 *. Bigarray.Array2.unsafe_get ws.bk3 i k)
               +. (a54 *. Bigarray.Array2.unsafe_get ws.bk4 i k))))
    done
  done;
  sys.bderiv ~ys:ws.btmp ~dys:ws.bk5 ~cols:act;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btmp i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h
            *. ((a61 *. Bigarray.Array2.unsafe_get ws.bk1 i k)
               +. (a62 *. Bigarray.Array2.unsafe_get ws.bk2 i k)
               +. (a63 *. Bigarray.Array2.unsafe_get ws.bk3 i k)
               +. (a64 *. Bigarray.Array2.unsafe_get ws.bk4 i k)
               +. (a65 *. Bigarray.Array2.unsafe_get ws.bk5 i k))))
    done
  done;
  sys.bderiv ~ys:ws.btmp ~dys:ws.bk6 ~cols:act;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btrial i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h
            *. ((b1 *. Bigarray.Array2.unsafe_get ws.bk1 i k)
               +. (b3 *. Bigarray.Array2.unsafe_get ws.bk3 i k)
               +. (b4 *. Bigarray.Array2.unsafe_get ws.bk4 i k)
               +. (b5 *. Bigarray.Array2.unsafe_get ws.bk5 i k)
               +. (b6 *. Bigarray.Array2.unsafe_get ws.bk6 i k))))
    done
  done;
  sys.bderiv ~ys:ws.btrial ~dys:ws.bk7 ~cols:act;
  for j = 0 to na - 1 do
    let k = Array.unsafe_get act.Active.idx j in
    Array.unsafe_set ws.berr k 0.0;
    Array.unsafe_set ws.bevals k (Array.unsafe_get ws.bevals k + 6)
  done;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      let e =
        h
        *. ((e1 *. Bigarray.Array2.unsafe_get ws.bk1 i k)
           +. (e3 *. Bigarray.Array2.unsafe_get ws.bk3 i k)
           +. (e4 *. Bigarray.Array2.unsafe_get ws.bk4 i k)
           +. (e5 *. Bigarray.Array2.unsafe_get ws.bk5 i k)
           +. (e6 *. Bigarray.Array2.unsafe_get ws.bk6 i k)
           +. (e7 *. Bigarray.Array2.unsafe_get ws.bk7 i k))
      in
      let ay = Float.abs (Bigarray.Array2.unsafe_get ys i k) in
      let atr = Float.abs (Bigarray.Array2.unsafe_get ws.btrial i k) in
      let scale = atol +. (rtol *. (if ay > atr then ay else atr)) in
      let r = Float.abs e /. scale in
      if r > Array.unsafe_get ws.berr k then Array.unsafe_set ws.berr k r
    done
  done;
  ws.brounds <- ws.brounds + 6

(* One lockstep Bogacki-Shampine 3(2) attempt; same contract as
   {!dp_attempt_cols} with the FSAL stage landing in ws.bk4. Three
   derivative sweeps. *)
let bs_attempt_cols sys ws ~rtol ~atol (ys : Mat.t) =
  let n = sys.bdim in
  let act = ws.bworking in
  let na = act.Active.n in
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btmp i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h *. bs_a21 *. Bigarray.Array2.unsafe_get ws.bk1 i k))
    done
  done;
  sys.bderiv ~ys:ws.btmp ~dys:ws.bk2 ~cols:act;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btmp i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h *. bs_a32 *. Bigarray.Array2.unsafe_get ws.bk2 i k))
    done
  done;
  sys.bderiv ~ys:ws.btmp ~dys:ws.bk3 ~cols:act;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      Bigarray.Array2.unsafe_set ws.btrial i k
        (Bigarray.Array2.unsafe_get ys i k
        +. (h
            *. ((bs_b1 *. Bigarray.Array2.unsafe_get ws.bk1 i k)
               +. (bs_b2 *. Bigarray.Array2.unsafe_get ws.bk2 i k)
               +. (bs_b3 *. Bigarray.Array2.unsafe_get ws.bk3 i k))))
    done
  done;
  sys.bderiv ~ys:ws.btrial ~dys:ws.bk4 ~cols:act;
  for j = 0 to na - 1 do
    let k = Array.unsafe_get act.Active.idx j in
    Array.unsafe_set ws.berr k 0.0;
    Array.unsafe_set ws.bevals k (Array.unsafe_get ws.bevals k + 3)
  done;
  for i = 0 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get act.Active.idx j in
      let h = Array.unsafe_get ws.bhh k in
      let e =
        h
        *. ((bs_e1 *. Bigarray.Array2.unsafe_get ws.bk1 i k)
           +. (bs_e2 *. Bigarray.Array2.unsafe_get ws.bk2 i k)
           +. (bs_e3 *. Bigarray.Array2.unsafe_get ws.bk3 i k)
           +. (bs_e4 *. Bigarray.Array2.unsafe_get ws.bk4 i k))
      in
      let ay = Float.abs (Bigarray.Array2.unsafe_get ys i k) in
      let atr = Float.abs (Bigarray.Array2.unsafe_get ws.btrial i k) in
      let scale = atol +. (rtol *. (if ay > atr then ay else atr)) in
      let r = Float.abs e /. scale in
      if r > Array.unsafe_get ws.berr k then Array.unsafe_set ws.berr k r
    done
  done;
  ws.brounds <- ws.brounds + 3

(* Per-column accept/reject and PI-controller update after one lockstep
   attempt — the same controller as the scalar {!adaptive}, replicated
   per column. Accepted columns that reach [t1] are dropped from the
   working set (frozen: their ys column is never touched again);
   rejected columns shrink their own step without holding anyone back. *)
let batch_commit ws ~(fsal : Mat.t) ~alpha ~beta ~expo ~dt_max ~t1
    (ys : Mat.t) =
  let n = Bigarray.Array2.dim1 ys in
  let act = ws.bworking in
  (* descending with swap-remove, as in {!batch_guard}: ref-free so the
     commit stays on the zero-alloc path *)
  for j = act.Active.n - 1 downto 0 do
    if j < act.Active.n then begin
    let k = Array.unsafe_get act.Active.idx j in
    let err = Array.unsafe_get ws.berr k in
    let h = Array.unsafe_get ws.bhh k in
    if err <= 1.0 then begin
      for i = 0 to n - 1 do
        Bigarray.Array2.unsafe_set ys i k
          (Bigarray.Array2.unsafe_get ws.btrial i k);
        Bigarray.Array2.unsafe_set ws.bk1 i k
          (Bigarray.Array2.unsafe_get fsal i k)
      done;
      Array.unsafe_set ws.bts k (Array.unsafe_get ws.bts k +. h);
      Array.unsafe_set ws.baccepted k (Array.unsafe_get ws.baccepted k + 1);
      let factor =
        if not (Float.is_finite err) then 0.2
        else if err <= 1e-300 then 5.0
        else begin
          let f = 0.9 *. (err ** -.alpha) *. (Array.unsafe_get ws.berr_prev k ** beta) in
          let f = if f < 0.2 then 0.2 else f in
          if f > 5.0 then 5.0 else f
        end
      in
      let factor =
        if Array.unsafe_get ws.bjust_rejected k && factor > 1.0 then 1.0
        else factor
      in
      Array.unsafe_set ws.bjust_rejected k false;
      Array.unsafe_set ws.berr_prev k (if err > 1e-4 then err else 1e-4);
      let nh = h *. factor in
      Array.unsafe_set ws.bhs k (if nh > dt_max then dt_max else nh);
      if Array.unsafe_get ws.bts k >= t1 -. 1e-14 then Active.drop act j
    end
    else begin
      Array.unsafe_set ws.brejected k (Array.unsafe_get ws.brejected k + 1);
      Array.unsafe_set ws.bjust_rejected k true;
      let factor =
        if not (Float.is_finite err) then 0.2
        else begin
          let f = 0.9 *. (err ** -.expo) in
          let f = if f < 0.2 then 0.2 else f in
          if f > 1.0 then 1.0 else f
        end
      in
      Array.unsafe_set ws.bhs k (h *. factor)
    end
    end
  done

let adaptive_cols ?(pair = Rk45) ?(rtol = 1e-8) ?(atol = 1e-12) ?dt0s
    ?(dt_max = infinity) ?(max_steps = 10_000_000) ?ws sys ~ys ~cols ~t0 ~t1 =
  if dt_max <= 0.0 then
    invalid_arg "Ode.adaptive_cols: dt_max must be positive";
  if Mat.rows ys <> sys.bdim || Mat.cols ys <> sys.bcols then
    invalid_arg "Ode.adaptive_cols: state matrix shape mismatch";
  (match dt0s with
  | Some a when Array.length a <> sys.bcols ->
      invalid_arg "Ode.adaptive_cols: dt0s length mismatch"
  | _ -> ());
  let ws = match ws with Some w -> w | None -> batch_workspace sys in
  Active.copy_into ~src:cols ~dst:ws.bworking;
  let default_h = (t1 -. t0) /. 100.0 in
  for j = 0 to cols.Active.n - 1 do
    let k = cols.Active.idx.(j) in
    let h0 = match dt0s with Some a -> a.(k) | None -> default_h in
    ws.bts.(k) <- t0;
    ws.bhs.(k) <- (if h0 > dt_max then dt_max else h0);
    ws.berr_prev.(k) <- 1e-4;
    ws.bjust_rejected.(k) <- false;
    ws.baccepted.(k) <- 0;
    ws.brejected.(k) <- 0;
    ws.bevals.(k) <- 0;
    ws.bfailed.(k) <- false
  done;
  ws.brounds <- 0;
  if t1 > t0 && ws.bworking.Active.n > 0 then begin
    let expo =
      1.0 /. float_of_int ((match pair with Rk45 -> 4 | Rk23 -> 2) + 1)
    in
    let alpha = 0.7 *. expo and beta = 0.4 *. expo in
    let fsal = match pair with Rk45 -> ws.bk7 | Rk23 -> ws.bk4 in
    (* FSAL: only the first round pays for k1; accepted columns refresh
       their k1 column from the last stage of the attempt. *)
    sys.bderiv ~ys ~dys:ws.bk1 ~cols:ws.bworking;
    ws.brounds <- 1;
    for j = 0 to ws.bworking.Active.n - 1 do
      let k = ws.bworking.Active.idx.(j) in
      ws.bevals.(k) <- ws.bevals.(k) + 1
    done;
    while ws.bworking.Active.n > 0 do
      batch_guard ws ~max_steps;
      if ws.bworking.Active.n > 0 then begin
        for j = 0 to ws.bworking.Active.n - 1 do
          let k = ws.bworking.Active.idx.(j) in
          let remain = t1 -. ws.bts.(k) in
          ws.bhh.(k) <- (if ws.bhs.(k) > remain then remain else ws.bhs.(k))
        done;
        (match pair with
        | Rk45 -> dp_attempt_cols sys ws ~rtol ~atol ys
        | Rk23 -> bs_attempt_cols sys ws ~rtol ~atol ys);
        batch_commit ws ~fsal ~alpha ~beta ~expo ~dt_max ~t1 ys
      end
    done
  end;
  ws

type steady_outcome = Converged of float | Timed_out of float

let relax ?(stepper = Rk4) ?(dt = 0.1) ?(tol = 1e-12) ?(check_every = 25.0)
    ?(max_time = 1e6) sys ~y =
  let ws = workspace sys in
  let step = step_fn stepper in
  let residual () =
    sys.deriv ~t:0.0 ~y ~dy:ws.k1;
    Vec.norm_inf ws.k1
  in
  let rec go t =
    if residual () <= tol then Converged (residual ())
    else if t >= max_time then Timed_out (residual ())
    else begin
      let target = Float.min max_time (t +. check_every) in
      let tc = ref t in
      while !tc < target -. 1e-14 do
        let h = Float.min dt (target -. !tc) in
        step sys ws ~t:!tc ~dt:h y;
        tc := !tc +. h
      done;
      go target
    end
  in
  go 0.0
