open Numerics

let pi2_exact ~lambda =
  Root.solve_quadratic_smaller ~b:(-.(1.0 +. lambda)) ~c:(lambda *. lambda)

let tail_ratio_exact ~lambda =
  lambda /. (1.0 +. lambda -. pi2_exact ~lambda)

let deriv ~lambda ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let steal_rate = y.(1) -. y.(2) in
  dy.(0) <- 0.0;
  dy.(1) <- (lambda *. (y.(0) -. y.(1))) -. (steal_rate *. (1.0 -. y.(2)));
  for i = 2 to n - 1 do
    let next = Tail.get y ~ratio (i + 1) in
    let drain = y.(i) -. next in
    dy.(i) <-
      (lambda *. (y.(i - 1) -. y.(i))) -. drain -. (drain *. steal_rate)
  done

let model ~lambda ?dim () =
  let dim =
    match dim with Some d -> d | None -> Tail.suggested_dim ~lambda ()
  in
  Model.of_single_tail
    ~name:(Printf.sprintf "simple_ws(lambda=%g)" lambda)
    ~kind:"simple" ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~y ~dy)
    ~probe:(fun ~y ~dy -> deriv ~lambda:Model.generic ~y ~dy)
    ~predicted_tail_ratio:(fun s ->
      lambda /. (1.0 +. lambda -. s.(2)))
    ()

(* Column-wise kernel for a batch of simple-WS systems: per-column
   arithmetic mirrors {!deriv} exactly (bit-identical), row-outer for
   stride-1 sweeps across the batch. [ratios]/[steals] are per-batch
   scratch; runs allocation-free. *)
let deriv_cols ~lambdas ~ratios ~steals ~(ys : Mat.t) ~(dys : Mat.t) ~cols =
  let n = Bigarray.Array2.dim1 ys in
  let na = cols.Active.n in
  for j = 0 to na - 1 do
    let k = Array.unsafe_get cols.Active.idx j in
    let lambda = Array.unsafe_get lambdas k in
    Array.unsafe_set ratios k (Tail.boundary_ratio_col ys k);
    let y1 = Bigarray.Array2.unsafe_get ys 1 k
    and y2 = Bigarray.Array2.unsafe_get ys 2 k in
    let steal_rate = y1 -. y2 in
    Array.unsafe_set steals k steal_rate;
    Bigarray.Array2.unsafe_set dys 0 k 0.0;
    Bigarray.Array2.unsafe_set dys 1 k
      ((lambda *. (Bigarray.Array2.unsafe_get ys 0 k -. y1))
      -. (steal_rate *. (1.0 -. y2)))
  done;
  for i = 2 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get cols.Active.idx j in
      let lambda = Array.unsafe_get lambdas k in
      let next =
        if i + 1 < n then Bigarray.Array2.unsafe_get ys (i + 1) k
        else Tail.ext_col ys ~ratio:(Array.unsafe_get ratios k) k (i + 1)
      in
      let yi = Bigarray.Array2.unsafe_get ys i k in
      let drain = yi -. next in
      Bigarray.Array2.unsafe_set dys i k
        ((lambda *. (Bigarray.Array2.unsafe_get ys (i - 1) k -. yi))
        -. drain
        -. (drain *. Array.unsafe_get steals k))
    done
  done

let batch ~lambdas ?dim () =
  let k = Array.length lambdas in
  if k = 0 then invalid_arg "Simple_ws.batch: empty lambda grid";
  let dim =
    match dim with
    | Some d -> d
    | None ->
        Array.fold_left
          (fun acc lambda -> max acc (Tail.suggested_dim ~lambda ()))
          4 lambdas
  in
  let lambdas = Array.copy lambdas in
  let ratios = Array.make k 0.0 in
  let steals = Array.make k 0.0 in
  let dc ~ys ~dys ~cols =
    deriv_cols ~lambdas ~ratios ~steals ~ys ~dys ~cols
  in
  Array.map
    (fun lambda ->
      { (model ~lambda ~dim ()) with Model.deriv_cols = Some dc })
    lambdas

let fixed_point_exact ~lambda ~dim =
  if dim < 4 then invalid_arg "Simple_ws.fixed_point_exact: dim too small";
  let pi2 = pi2_exact ~lambda in
  let q = tail_ratio_exact ~lambda in
  Vec.init dim (fun i ->
      if i = 0 then 1.0
      else if i = 1 then lambda
      else pi2 *. (q ** float_of_int (i - 2)))

let mean_tasks_exact ~lambda =
  let pi2 = pi2_exact ~lambda in
  let q = tail_ratio_exact ~lambda in
  lambda +. (pi2 /. (1.0 -. q))

let mean_time_exact ~lambda = mean_tasks_exact ~lambda /. lambda
