open Numerics

let deriv ~lambda ~t ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let attempt = y.(1) -. y.(2) in
  let s_t = Tail.get y ~ratio t in
  dy.(0) <- 0.0;
  dy.(1) <- (lambda *. (y.(0) -. y.(1))) -. (attempt *. (1.0 -. s_t));
  for i = 2 to n - 1 do
    let arrive = lambda *. (y.(i - 1) -. y.(i)) in
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    let thief_gain = attempt *. Tail.get y ~ratio (max t (2 * i)) in
    let victim_loss =
      attempt
      *. (Tail.get y ~ratio (max i t)
         -. Tail.get y ~ratio (max ((2 * i) - 1) t))
    in
    dy.(i) <- arrive -. drain +. thief_gain -. victim_loss
  done

(* Column-wise kernel for a batch of steal-half systems sharing one
   threshold [t]: per-column arithmetic mirrors {!deriv} exactly
   (bit-identical), row-outer for stride-1 sweeps. [ratios]/[attempts]
   are per-batch scratch; runs allocation-free. *)
let deriv_cols ~lambdas ~t ~ratios ~attempts ~(ys : Mat.t) ~(dys : Mat.t)
    ~cols =
  let n = Bigarray.Array2.dim1 ys in
  let na = cols.Active.n in
  for j = 0 to na - 1 do
    let k = Array.unsafe_get cols.Active.idx j in
    let lambda = Array.unsafe_get lambdas k in
    Array.unsafe_set ratios k (Tail.boundary_ratio_col ys k);
    let y1 = Bigarray.Array2.unsafe_get ys 1 k
    and y2 = Bigarray.Array2.unsafe_get ys 2 k in
    let attempt = y1 -. y2 in
    Array.unsafe_set attempts k attempt;
    let s_t = Tail.ext_col ys ~ratio:(Array.unsafe_get ratios k) k t in
    Bigarray.Array2.unsafe_set dys 0 k 0.0;
    Bigarray.Array2.unsafe_set dys 1 k
      ((lambda *. (Bigarray.Array2.unsafe_get ys 0 k -. y1))
      -. (attempt *. (1.0 -. s_t)))
  done;
  for i = 2 to n - 1 do
    let i2 = 2 * i in
    let thief_i = if t > i2 then t else i2 in
    let victim_hi = if t > i2 - 1 then t else i2 - 1 in
    let victim_lo = if t > i then t else i in
    for j = 0 to na - 1 do
      let k = Array.unsafe_get cols.Active.idx j in
      let lambda = Array.unsafe_get lambdas k in
      let ratio = Array.unsafe_get ratios k in
      let attempt = Array.unsafe_get attempts k in
      let yi = Bigarray.Array2.unsafe_get ys i k in
      let arrive =
        lambda *. (Bigarray.Array2.unsafe_get ys (i - 1) k -. yi)
      in
      let drain = yi -. Tail.ext_col ys ~ratio k (i + 1) in
      let thief_gain = attempt *. Tail.ext_col ys ~ratio k thief_i in
      let victim_loss =
        attempt
        *. (Tail.ext_col ys ~ratio k victim_lo
           -. Tail.ext_col ys ~ratio k victim_hi)
      in
      Bigarray.Array2.unsafe_set dys i k
        (arrive -. drain +. thief_gain -. victim_loss)
    done
  done

let model ~lambda ?(threshold = 2) ?dim () =
  if threshold < 2 then
    invalid_arg "Steal_half_ws: threshold must be at least 2";
  let dim =
    match dim with
    | Some d -> d
    | None -> max (threshold + 8) (Tail.suggested_dim ~lambda ())
  in
  Model.of_single_tail
    ~name:(Printf.sprintf "steal_half_ws(lambda=%g, T=%d)" lambda threshold)
    ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~t:threshold ~y ~dy)
    ()

let batch ~lambdas ?(threshold = 2) ?dim () =
  if threshold < 2 then
    invalid_arg "Steal_half_ws.batch: threshold must be at least 2";
  let k = Array.length lambdas in
  if k = 0 then invalid_arg "Steal_half_ws.batch: empty lambda grid";
  let dim =
    match dim with
    | Some d -> d
    | None ->
        Array.fold_left
          (fun acc lambda ->
            max acc (max (threshold + 8) (Tail.suggested_dim ~lambda ())))
          4 lambdas
  in
  let lambdas = Array.copy lambdas in
  let ratios = Array.make k 0.0 in
  let attempts = Array.make k 0.0 in
  let dc ~ys ~dys ~cols =
    deriv_cols ~lambdas ~t:threshold ~ratios ~attempts ~ys ~dys ~cols
  in
  Array.map
    (fun lambda ->
      {
        (model ~lambda ~threshold ~dim ()) with
        Model.deriv_cols = Some dc;
      })
    lambdas
