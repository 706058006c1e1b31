open Numerics

let deriv ~lambda ~t ~d ~k ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let attempt = y.(1) -. y.(2) in
  let miss_all = Tail.ipow (1.0 -. Tail.get y ~ratio t) d in
  let success = 1.0 -. miss_all in
  dy.(0) <- 0.0;
  dy.(1) <- (lambda *. (y.(0) -. y.(1))) -. (attempt *. miss_all);
  for i = 2 to n - 1 do
    let arrive = lambda *. (y.(i - 1) -. y.(i)) in
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    let thief_gain = if i <= k then attempt *. success else 0.0 in
    let victim_loss =
      (* victims v with max(i, T) <= v <= i+k-1 drop below level i *)
      let a = max i t in
      let b = i + k - 1 in
      if b < a then 0.0
      else
        attempt
        *. (Tail.ipow (1.0 -. Tail.get y ~ratio (b + 1)) d
           -. Tail.ipow (1.0 -. Tail.get y ~ratio a) d)
    in
    dy.(i) <- arrive -. drain +. thief_gain -. victim_loss
  done

let model ~lambda ~threshold ~choices ~steal_count ?dim () =
  if choices < 1 then invalid_arg "Combined_ws: choices must be at least 1";
  if steal_count < 1 then
    invalid_arg "Combined_ws: steal_count must be at least 1";
  if threshold < steal_count + 1 then
    invalid_arg "Combined_ws: need threshold >= steal_count + 1";
  let dim =
    match dim with
    | Some d -> d
    | None ->
        max (threshold + steal_count + 8) (Tail.suggested_dim ~lambda ())
  in
  Model.of_single_tail
    ~name:
      (Printf.sprintf "combined_ws(lambda=%g, T=%d, d=%d, k=%d)" lambda
         threshold choices steal_count)
    ~lambda ~dim
    ~deriv:(fun ~y ~dy ->
      deriv ~lambda ~t:threshold ~d:choices ~k:steal_count ~y ~dy)
    ()
