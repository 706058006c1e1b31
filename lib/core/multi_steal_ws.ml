open Numerics

let deriv ~lambda ~k ~t ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let attempt = y.(1) -. y.(2) in
  let s_t = Tail.get y ~ratio t in
  dy.(0) <- 0.0;
  dy.(1) <- (lambda *. (y.(0) -. y.(1))) -. (attempt *. (1.0 -. s_t));
  for i = 2 to n - 1 do
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    let arrive = lambda *. (y.(i - 1) -. y.(i)) in
    let thief_gain = if i <= k then attempt *. s_t else 0.0 in
    let victim_loss =
      (* victims of load x lower s_i when i ≤ x < i+k and x ≥ T *)
      let hi =
        Tail.get y ~ratio (max i t) -. Tail.get y ~ratio (max (i + k) t)
      in
      attempt *. hi
    in
    dy.(i) <- arrive -. drain +. thief_gain -. victim_loss
  done

let model ~lambda ~steal_count ~threshold ?dim () =
  if steal_count < 1 then
    invalid_arg "Multi_steal_ws: steal_count must be at least 1";
  if 2 * steal_count > threshold then
    invalid_arg "Multi_steal_ws: need 2·steal_count <= threshold";
  let dim =
    match dim with
    | Some d -> d
    | None -> max (threshold + 8) (Tail.suggested_dim ~lambda ())
  in
  Model.of_single_tail
    ~name:
      (Printf.sprintf "multi_steal_ws(lambda=%g, k=%d, T=%d)" lambda
         steal_count threshold)
    ~kind:"multisteal" ~ints:[ steal_count; threshold ] ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~k:steal_count ~t:threshold ~y ~dy)
    ~probe:(fun ~y ~dy ->
      deriv ~lambda:Model.generic ~k:steal_count ~t:threshold ~y ~dy)
    ()
