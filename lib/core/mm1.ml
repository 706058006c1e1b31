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
    ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~y ~dy)
    ~predicted_tail_ratio:(fun _ -> lambda)
    ()

(* Column-wise kernel for a batch of M/M/1 systems, one λ per column:
   the same arithmetic as {!deriv} in the same order per column, so the
   result is bit-identical, with the i-loop outermost so each sweep
   walks three stride-1 rows across the batch. [ratios] is per-batch
   scratch for the boundary ratios; runs allocation-free. *)
let deriv_cols ~lambdas ~ratios ~(ys : Mat.t) ~(dys : Mat.t) ~cols =
  let n = Bigarray.Array2.dim1 ys in
  let na = cols.Active.n in
  for j = 0 to na - 1 do
    let k = Array.unsafe_get cols.Active.idx j in
    Array.unsafe_set ratios k (Tail.boundary_ratio_col ys k);
    Bigarray.Array2.unsafe_set dys 0 k 0.0
  done;
  for i = 1 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get cols.Active.idx j in
      let lambda = Array.unsafe_get lambdas k in
      let next =
        if i + 1 < n then Bigarray.Array2.unsafe_get ys (i + 1) k
        else Tail.ext_col ys ~ratio:(Array.unsafe_get ratios k) k (i + 1)
      in
      let yi = Bigarray.Array2.unsafe_get ys i k in
      Bigarray.Array2.unsafe_set dys i k
        ((lambda *. (Bigarray.Array2.unsafe_get ys (i - 1) k -. yi))
        -. (yi -. next))
    done
  done

let batch ~lambdas ?dim () =
  let k = Array.length lambdas in
  if k = 0 then invalid_arg "Mm1.batch: empty lambda grid";
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
  let dc ~ys ~dys ~cols = deriv_cols ~lambdas ~ratios ~ys ~dys ~cols in
  Array.map
    (fun lambda ->
      { (model ~lambda ~dim ()) with Model.deriv_cols = Some dc })
    lambdas

let fixed_point_exact ~lambda ~dim =
  Tail.geometric ~dim ~ratio:lambda ~mass:1.0

let mean_time_exact ~lambda =
  if lambda >= 1.0 then infinity else 1.0 /. (1.0 -. lambda)

let mean_tasks_exact ~lambda =
  if lambda >= 1.0 then infinity else lambda /. (1.0 -. lambda)
