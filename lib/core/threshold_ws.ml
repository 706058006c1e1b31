open Numerics

let check_threshold threshold =
  if threshold < 2 then
    invalid_arg "Threshold_ws: threshold must be at least 2"

let pi_threshold_exact ~lambda ~threshold =
  check_threshold threshold;
  Root.solve_quadratic_smaller ~b:(-.(1.0 +. lambda))
    ~c:(lambda ** float_of_int threshold)

(* Prefix π₁ … π_T: differences d_i = π_i - π_{i+1} satisfy d_i = λ^{i-1}·d₁
   for 1 ≤ i ≤ T-1 (equation (5) at the fixed point), with
   d₁ = λ(1-λ)/(1-π_T) from equation (4). *)
let prefix ~lambda ~threshold =
  let pi_t = pi_threshold_exact ~lambda ~threshold in
  let d1 = lambda *. (1.0 -. lambda) /. (1.0 -. pi_t) in
  let pis = Array.make (threshold + 1) 0.0 in
  pis.(0) <- 1.0;
  pis.(1) <- lambda;
  let d = ref d1 in
  for i = 2 to threshold do
    pis.(i) <- pis.(i - 1) -. !d;
    d := !d *. lambda
  done;
  pis

let tail_ratio_exact ~lambda ~threshold =
  let pis = prefix ~lambda ~threshold in
  lambda /. (1.0 +. lambda -. pis.(2))

let fixed_point_exact ~lambda ~threshold ~dim =
  check_threshold threshold;
  if dim < threshold + 2 then
    invalid_arg "Threshold_ws.fixed_point_exact: dim too small";
  let pis = prefix ~lambda ~threshold in
  let q = tail_ratio_exact ~lambda ~threshold in
  Vec.init dim (fun i ->
      if i <= threshold then pis.(i)
      else pis.(threshold) *. (q ** float_of_int (i - threshold)))

let mean_tasks_exact ~lambda ~threshold =
  let pis = prefix ~lambda ~threshold in
  let q = tail_ratio_exact ~lambda ~threshold in
  let prefix_sum = ref 0.0 in
  for i = 1 to threshold - 1 do
    prefix_sum := !prefix_sum +. pis.(i)
  done;
  !prefix_sum +. (pis.(threshold) /. (1.0 -. q))

let mean_time_exact ~lambda ~threshold =
  mean_tasks_exact ~lambda ~threshold /. lambda

let deriv ~lambda ~threshold ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let steal_rate = y.(1) -. y.(2) in
  let s_t = y.(threshold) in
  dy.(0) <- 0.0;
  dy.(1) <- (lambda *. (y.(0) -. y.(1))) -. (steal_rate *. (1.0 -. s_t));
  for i = 2 to n - 1 do
    let next = Tail.get y ~ratio (i + 1) in
    let drain = y.(i) -. next in
    let steal_loss = if i >= threshold then drain *. steal_rate else 0.0 in
    dy.(i) <- (lambda *. (y.(i - 1) -. y.(i))) -. drain -. steal_loss
  done

let model ~lambda ~threshold ?dim () =
  check_threshold threshold;
  let dim =
    match dim with
    | Some d -> d
    | None -> max (threshold + 8) (Tail.suggested_dim ~lambda ())
  in
  Model.of_single_tail
    ~name:(Printf.sprintf "threshold_ws(lambda=%g, T=%d)" lambda threshold)
    ~kind:"threshold" ~ints:[ threshold ] ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~threshold ~y ~dy)
    ~probe:(fun ~y ~dy -> deriv ~lambda:Model.generic ~threshold ~y ~dy)
    ~predicted_tail_ratio:(fun s -> lambda /. (1.0 +. lambda -. s.(2)))
    ()
