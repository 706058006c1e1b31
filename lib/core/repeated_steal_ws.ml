open Numerics

let tail_ratio_predicted ~lambda ~retry_rate s =
  lambda
  /. (1.0 +. (retry_rate *. (1.0 -. lambda)) +. lambda -. s.(2))

let deriv ~lambda ~r ~t ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let s_t = Tail.get y ~ratio t in
  let empty = y.(0) -. y.(1) in
  let on_complete = y.(1) -. y.(2) in
  dy.(0) <- 0.0;
  dy.(1) <-
    (lambda *. (y.(0) -. y.(1)))
    +. (r *. empty *. s_t)
    -. (on_complete *. (1.0 -. s_t));
  for i = 2 to n - 1 do
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    let arrive = lambda *. (y.(i - 1) -. y.(i)) in
    if i <= t - 1 then dy.(i) <- arrive -. drain
    else
      dy.(i) <-
        arrive -. (drain *. (1.0 +. on_complete +. (r *. empty)))
  done

let model ~lambda ~retry_rate ~threshold ?dim () =
  if retry_rate < 0.0 then
    invalid_arg "Repeated_steal_ws: retry_rate must be non-negative";
  if threshold < 2 then
    invalid_arg "Repeated_steal_ws: threshold must be at least 2";
  let dim =
    match dim with
    | Some d -> d
    | None -> max (threshold + 8) (Tail.suggested_dim ~lambda ())
  in
  Model.of_single_tail
    ~name:
      (Printf.sprintf "repeated_steal_ws(lambda=%g, r=%g, T=%d)" lambda
         retry_rate threshold)
    ~kind:"repeated" ~ints:[ threshold ] ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~r:retry_rate ~t:threshold ~y ~dy)
    ~probe:(fun ~y ~dy ->
      deriv ~lambda:Model.generic ~r:Model.generic ~t:threshold ~y ~dy)
    ~predicted_tail_ratio:(tail_ratio_predicted ~lambda ~retry_rate)
    ~suggested_dt:(Float.min 0.25 (1.0 /. (2.0 +. retry_rate)))
    ()
