open Numerics

let deriv ~lambda ~d ~t ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let attempt = y.(1) -. y.(2) in
  let miss_all = Tail.ipow (1.0 -. Tail.get y ~ratio t) d in
  dy.(0) <- 0.0;
  dy.(1) <- (lambda *. (y.(0) -. y.(1))) -. (attempt *. miss_all);
  for i = 2 to n - 1 do
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    let arrive = lambda *. (y.(i - 1) -. y.(i)) in
    if i <= t - 1 then dy.(i) <- arrive -. drain
    else begin
      let hit =
        Tail.ipow (1.0 -. Tail.get y ~ratio (i + 1)) d
        -. Tail.ipow (1.0 -. y.(i)) d
      in
      dy.(i) <- arrive -. drain -. (hit *. attempt)
    end
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
    ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~d:choices ~t:threshold ~y ~dy)
    ()
