open Numerics

let deriv ~lambda ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  dy.(0) <- 0.0;
  for i = 1 to n - 1 do
    let next = Tail.get y ~ratio (i + 1) in
    dy.(i) <- (lambda *. (y.(i - 1) -. y.(i))) -. (y.(i) -. next)
  done

let model ~lambda ?dim () =
  let dim =
    match dim with Some d -> d | None -> Tail.suggested_dim ~lambda ()
  in
  Model.of_single_tail ~name:(Printf.sprintf "mm1(lambda=%g)" lambda)
    ~kind:"mm1" ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~y ~dy)
    ~probe:(fun ~y ~dy -> deriv ~lambda:Model.generic ~y ~dy)
    ~predicted_tail_ratio:(fun _ -> lambda)
    ()

let fixed_point_exact ~lambda ~dim =
  Tail.geometric ~dim ~ratio:lambda ~mass:1.0

let mean_time_exact ~lambda =
  if lambda >= 1.0 then infinity else 1.0 /. (1.0 -. lambda)

let mean_tasks_exact ~lambda =
  if lambda >= 1.0 then infinity else lambda /. (1.0 -. lambda)
