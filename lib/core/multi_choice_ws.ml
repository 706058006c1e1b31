open Numerics

let deriv ~lambda ~d ~t ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let attempt = y.(1) -. y.(2) in
  let miss_all = Tail.ipow (1.0 -. Tail.get y ~ratio t) d in
  dy.(0) <- 0.0;
  dy.(1) <- (lambda *. (y.(0) -. y.(1))) -. (attempt *. miss_all);
  for i = 2 to n - 1 do
    let yi = y.(i) and next = Tail.get y ~ratio (i + 1) in
    let drain = yi -. next in
    let arrive = lambda *. (y.(i - 1) -. yi) in
    if i <= t - 1 then dy.(i) <- arrive -. drain
    else dy.(i) <- arrive -. drain -. (Tail.pow_diff next yi d *. attempt)
  done

let model ~lambda ~choices ~threshold ?dim () =
  if choices < 1 then invalid_arg "Multi_choice_ws: choices must be >= 1";
  if threshold < 2 then
    invalid_arg "Multi_choice_ws: threshold must be at least 2";
  let dim =
    match dim with
    | Some d -> d
    | None -> max (threshold + 8) (Tail.suggested_dim ~lambda ())
  in
  Model.of_single_tail
    ~name:
      (Printf.sprintf "multi_choice_ws(lambda=%g, d=%d, T=%d)" lambda
         choices threshold)
    ~kind:"multi-choice" ~ints:[ choices; threshold ] ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~d:choices ~t:threshold ~y ~dy)
    ~probe:(fun ~y ~dy ->
      deriv ~lambda:Model.generic ~d:choices ~t:threshold ~y ~dy)
    ()
