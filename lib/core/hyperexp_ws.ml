open Numerics

(* Packed layout: y.(0) = 1 (constant mass anchor), y.(1..depth) = u,
   y.(depth+1 .. 2·depth) = v; u_k at y.(k), v_k at y.(depth + k). *)

let depth_of_dim dim = dim / 2

(* u_k is level k of the segment at [off = 0], v_k of the one at
   [off = depth]; [Tail.seg_get] closes each one level past [depth]. *)
let deriv ~lambda ~p1 ~mu1 ~mu2 ~t ~depth ~y ~dy =
  let p2 = 1.0 -. p1 in
  let u1 = Tail.seg_get y ~off:0 ~depth 1
  and u2 = Tail.seg_get y ~off:0 ~depth 2 in
  let v1 = Tail.seg_get y ~off:depth ~depth 1
  and v2 = Tail.seg_get y ~off:depth ~depth 2 in
  let empty = 1.0 -. u1 -. v1 in
  let s_t =
    Tail.seg_get y ~off:0 ~depth t +. Tail.seg_get y ~off:depth ~depth t
  in
  let attempt = (mu1 *. (u1 -. u2)) +. (mu2 *. (v1 -. v2)) in
  dy.(0) <- 0.0;
  (* phase-1 population *)
  dy.(1) <-
    (lambda *. empty *. p1)
    -. (mu1 *. (u1 -. u2) *. (1.0 -. (s_t *. p1)))
    +. (mu2 *. (v1 -. v2) *. s_t *. p1)
    -. (mu1 *. p2 *. u2)
    +. (mu2 *. p1 *. v2);
  for k = 2 to depth do
    let uk = Tail.seg_get y ~off:0 ~depth k
    and un = Tail.seg_get y ~off:0 ~depth (k + 1) in
    let steal_loss = if k >= t then attempt *. (uk -. un) else 0.0 in
    dy.(k) <-
      (lambda *. (Tail.seg_get y ~off:0 ~depth (k - 1) -. uk))
      -. (mu1 *. (uk -. un))
      -. (mu1 *. p2 *. un)
      +. (mu2 *. p1 *. Tail.seg_get y ~off:depth ~depth (k + 1))
      -. steal_loss
  done;
  (* phase-2 population *)
  dy.(depth + 1) <-
    (lambda *. empty *. p2)
    -. (mu2 *. (v1 -. v2) *. (1.0 -. (s_t *. p2)))
    +. (mu1 *. (u1 -. u2) *. s_t *. p2)
    -. (mu2 *. p1 *. v2)
    +. (mu1 *. p2 *. u2);
  for k = 2 to depth do
    let vk = Tail.seg_get y ~off:depth ~depth k
    and vn = Tail.seg_get y ~off:depth ~depth (k + 1) in
    let steal_loss = if k >= t then attempt *. (vk -. vn) else 0.0 in
    dy.(depth + k) <-
      (lambda *. (Tail.seg_get y ~off:depth ~depth (k - 1) -. vk))
      -. (mu2 *. (vk -. vn))
      -. (mu2 *. p1 *. vn)
      +. (mu1 *. p2 *. Tail.seg_get y ~off:0 ~depth (k + 1))
      -. steal_loss
  done

let model ~lambda ~p1 ~mu1 ~mu2 ?(threshold = 2) ?depth () =
  if p1 <= 0.0 || p1 >= 1.0 then
    invalid_arg "Hyperexp_ws: p1 must lie in (0, 1)";
  if mu1 <= 0.0 || mu2 <= 0.0 then
    invalid_arg "Hyperexp_ws: rates must be positive";
  if threshold < 2 then
    invalid_arg "Hyperexp_ws: threshold must be at least 2";
  let mean_service = (p1 /. mu1) +. ((1.0 -. p1) /. mu2) in
  if lambda *. mean_service >= 1.0 then
    invalid_arg "Hyperexp_ws: unstable (lambda x mean service >= 1)";
  let rho = lambda *. mean_service in
  let depth =
    match depth with
    | Some d -> max (threshold + 4) d
    | None -> max (threshold + 8) (Tail.suggested_dim ~lambda:rho ())
  in
  let dim = (2 * depth) + 1 in
  let initial_empty () =
    let y = Vec.create dim in
    y.(0) <- 1.0;
    y
  in
  let initial_warm () =
    let y = Vec.create dim in
    y.(0) <- 1.0;
    for k = 1 to depth do
      let tail = rho ** float_of_int k in
      y.(k) <- p1 *. tail;
      y.(depth + k) <- (1.0 -. p1) *. tail
    done;
    y
  in
  let validate y =
    let ok = ref (Float.abs (y.(0) -. 1.0) <= 1e-6) in
    if y.(1) +. y.(depth + 1) > 1.0 +. 1e-6 then ok := false;
    for k = 1 to depth do
      if y.(k) < -1e-7 || y.(depth + k) < -1e-7 then ok := false;
      if
        k > 1
        && (y.(k) > y.(k - 1) +. 1e-7
           || y.(depth + k) > y.(depth + k - 1) +. 1e-7)
      then ok := false
    done;
    !ok
  in
  {
    Model.name =
      Printf.sprintf "hyperexp_ws(lambda=%g, p1=%g, mu=(%g,%g), T=%d)"
        lambda p1 mu1 mu2 threshold;
    dim;
    throughput = lambda;
    deriv =
      (fun ~y ~dy ->
        deriv ~lambda ~p1 ~mu1 ~mu2 ~t:threshold ~depth ~y ~dy);
    deriv_cols = None;
    initial_empty;
    initial_warm;
    mean_tasks =
      (fun y ->
        Tail.seg_mean_tasks y ~off:0 ~depth
        +. Tail.seg_mean_tasks y ~off:depth ~depth);
    predicted_tail_ratio = None;
    validate;
    suggested_dt = 0.5 /. (1.0 +. Float.max mu1 mu2);
    structure =
      Model.structure ~kind:"hyperexp" ~ints:[ threshold ] ~dim (fun ~y ~dy ->
          (* unequal phase rates, so no cross-phase term cancels *)
          deriv ~lambda:Model.generic ~p1:Model.generic ~mu1:Model.generic
            ~mu2:(2.0 *. Model.generic) ~t:threshold ~depth ~y ~dy);
    (* u is levels 1 .. depth of the first segment, v those of the
       second, whose level 0 is u's last *)
    segments = [ (0, depth); (depth, depth) ];
  }

let of_service ~lambda ~service ?threshold ?depth () =
  match (service : Prob.Dist.service) with
  | Prob.Dist.Hyperexp { p; mean1; mean2 } ->
      let scale = (p *. mean1) +. ((1.0 -. p) *. mean2) in
      model ~lambda ~p1:p ~mu1:(scale /. mean1) ~mu2:(scale /. mean2)
        ?threshold ?depth ()
  | Prob.Dist.Exponential | Prob.Dist.Deterministic
  | Prob.Dist.Erlang_stages _ ->
      invalid_arg "Hyperexp_ws.of_service: expected a Hyperexp service"

let split (m : Model.t) y =
  let depth = depth_of_dim m.Model.dim in
  let u = Vec.create (depth + 1) and v = Vec.create (depth + 1) in
  for k = 1 to depth do
    u.(k) <- y.(k);
    v.(k) <- y.(depth + k)
  done;
  (u, v)
