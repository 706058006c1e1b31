open Numerics

(* Packed layout: y.(0..depth) = fast tails (mass f), y.(depth+1 ..) = slow. *)

let depth_of_dim dim = (dim / 2) - 1

(* One class's tail equations, read from and written to its segment at
   [off]. Inlined at both call sites, so neither the reads nor the float
   arguments are boxed. *)
let[@inline] class_deriv ~lambda ~mu ~t ~depth ~attempts ~pool ~off ~y ~dy =
  let s0 = Tail.seg_get y ~off ~depth 0
  and s1 = Tail.seg_get y ~off ~depth 1
  and s2 = Tail.seg_get y ~off ~depth 2 in
  dy.(off) <- 0.0;
  dy.(off + 1) <- (lambda *. (s0 -. s1)) -. (mu *. (s1 -. s2) *. (1.0 -. pool));
  for i = 2 to depth do
    let si = Tail.seg_get y ~off ~depth i
    and next = Tail.seg_get y ~off ~depth (i + 1) in
    let drain = mu *. (si -. next) in
    let steal_loss = if i >= t then attempts *. (si -. next) else 0.0 in
    dy.(off + i) <-
      (lambda *. (Tail.seg_get y ~off ~depth (i - 1) -. si))
      -. drain -. steal_loss
  done

let deriv ~lambda ~mu_f ~mu_s ~t ~depth ~y ~dy =
  let off = depth + 1 in
  let attempts =
    (mu_f
    *. (Tail.seg_get y ~off:0 ~depth 1 -. Tail.seg_get y ~off:0 ~depth 2))
    +. (mu_s *. (Tail.seg_get y ~off ~depth 1 -. Tail.seg_get y ~off ~depth 2))
  in
  let pool = Tail.seg_get y ~off:0 ~depth t +. Tail.seg_get y ~off ~depth t in
  class_deriv ~lambda ~mu:mu_f ~t ~depth ~attempts ~pool ~off:0 ~y ~dy;
  class_deriv ~lambda ~mu:mu_s ~t ~depth ~attempts ~pool ~off ~y ~dy

let seg_mean_tasks y off depth =
  let acc = ref 0.0 in
  for i = 1 to depth do
    acc := !acc +. y.(off + i)
  done;
  let rho = Tail.seg_ratio y ~off ~depth in
  if rho > 0.0 then acc := !acc +. (y.(off + depth) *. rho /. (1.0 -. rho));
  !acc

let model ~lambda ~fraction_fast ~mu_fast ~mu_slow ~threshold ?depth () =
  if fraction_fast <= 0.0 || fraction_fast >= 1.0 then
    invalid_arg "Heterogeneous_ws: fraction_fast must lie in (0, 1)";
  if mu_fast <= 0.0 || mu_slow <= 0.0 then
    invalid_arg "Heterogeneous_ws: speeds must be positive";
  if threshold < 2 then
    invalid_arg "Heterogeneous_ws: threshold must be at least 2";
  let capacity =
    (fraction_fast *. mu_fast) +. ((1.0 -. fraction_fast) *. mu_slow)
  in
  if lambda >= capacity then
    invalid_arg "Heterogeneous_ws: lambda must be below average capacity";
  let depth =
    match depth with
    | Some d -> max (threshold + 4) d
    | None ->
        (* Size by the worse of the pooled utilisation and the slow class's
           own utilisation; an individually-overloaded slow class
           (λ ≥ μ_slow) can carry a very deep backlog even though stealing
           keeps it stable, so allow a generous ceiling there. *)
        let pooled = Tail.suggested_dim ~lambda:(lambda /. capacity) () in
        let mu_min = Float.min mu_fast mu_slow in
        let slow_depth =
          if lambda >= mu_min then 768
          else Tail.suggested_dim ~lambda:(lambda /. mu_min) ~cap:768 ()
        in
        max (threshold + 8) (max pooled slow_depth)
  in
  let dim = 2 * (depth + 1) in
  let f = fraction_fast in
  let initial_empty () =
    let y = Vec.create dim in
    y.(0) <- f;
    y.(depth + 1) <- 1.0 -. f;
    y
  in
  let initial_warm () =
    let rho_f = Float.min 0.95 (lambda /. mu_fast) in
    let rho_s = Float.min 0.95 (lambda /. mu_slow) in
    Vec.init dim (fun idx ->
        if idx <= depth then f *. (rho_f ** float_of_int idx)
        else (1.0 -. f) *. (rho_s ** float_of_int (idx - depth - 1)))
  in
  let validate y =
    let off = depth + 1 in
    Float.abs (y.(0) -. f) <= 1e-6
    && Float.abs (y.(off) -. (1.0 -. f)) <= 1e-6
    && begin
         let ok = ref true in
         for i = 1 to depth do
           if y.(i) < -1e-7 || y.(i) > y.(i - 1) +. 1e-7 then ok := false;
           if y.(off + i) < -1e-7 || y.(off + i) > y.(off + i - 1) +. 1e-7
           then ok := false
         done;
         !ok
       end
  in
  {
    Model.name =
      Printf.sprintf
        "heterogeneous_ws(lambda=%g, f=%g, mu_f=%g, mu_s=%g, T=%d)" lambda
        fraction_fast mu_fast mu_slow threshold;
    dim;
    throughput = lambda;
    deriv =
      (fun ~y ~dy ->
        deriv ~lambda ~mu_f:mu_fast ~mu_s:mu_slow ~t:threshold ~depth ~y
          ~dy);
    deriv_cols = None;
    initial_empty;
    initial_warm;
    mean_tasks =
      (fun y -> seg_mean_tasks y 0 depth +. seg_mean_tasks y (depth + 1) depth);
    predicted_tail_ratio = None;
    validate;
    suggested_dt = 0.5 /. (1.0 +. Float.max mu_fast mu_slow);
  }

let split (m : Model.t) y =
  let depth = depth_of_dim m.Model.dim in
  (Array.sub y 0 (depth + 1), Array.sub y (depth + 1) (depth + 1))

let class_mean_tasks (m : Model.t) y ~fast =
  let depth = depth_of_dim m.Model.dim in
  let off = if fast then 0 else depth + 1 in
  let mass = y.(off) in
  if mass <= 0.0 then nan else seg_mean_tasks y off depth /. mass
