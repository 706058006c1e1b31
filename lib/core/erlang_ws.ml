open Numerics

let mean_tasks ~stages s =
  let n = Vec.dim s in
  let c = stages in
  (* Σ_{j≥1} s_{(j-1)c+1}: sum within the truncation, then close the series
     with the per-task geometric ratio estimated at the boundary. *)
  let acc = ref 0.0 in
  let idx = ref 1 in
  while !idx < n do
    acc := !acc +. s.(!idx);
    idx := !idx + c
  done;
  let last_idx = !idx - c in
  let prev_idx = last_idx - c in
  if prev_idx >= 1 && s.(prev_idx) > 1e-250 && s.(last_idx) > 0.0 then begin
    let ratio =
      Float.min 0.999999 (Float.max 0.0 (s.(last_idx) /. s.(prev_idx)))
    in
    acc := !acc +. (s.(last_idx) *. ratio /. (1.0 -. ratio))
  end;
  !acc

let deriv ~lambda ~c ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let cf = float_of_int c in
  let steal_rate = cf *. (y.(1) -. y.(2)) in
  let succ = Tail.get y ~ratio (c + 1) in
  dy.(0) <- 0.0;
  dy.(1) <-
    (lambda *. (y.(0) -. y.(1))) -. (steal_rate *. (1.0 -. succ));
  for i = 2 to n - 1 do
    let drain = cf *. (y.(i) -. Tail.get y ~ratio (i + 1)) in
    if i <= c then
      (* Arrivals land c fresh stages on any processor below i stages; a
         successful steal refills the thief's first c stage-levels, net of
         the victim's loss in the same range. *)
      dy.(i) <-
        (lambda *. (y.(0) -. y.(i)))
        +. (steal_rate *. Tail.get y ~ratio (i + c))
        -. drain
    else
      dy.(i) <-
        (lambda *. (y.(i - c) -. y.(i)))
        -. drain
        -. ((y.(1) -. y.(2)) *. cf *. (y.(i) -. Tail.get y ~ratio (i + c)))
  done

(* Column-wise kernel for a batch of Erlang-stage systems sharing one
   stage count [c]: per-column arithmetic mirrors {!deriv} exactly
   (bit-identical), row-outer for stride-1 sweeps. [ratios]/[steals]
   are per-batch scratch; runs allocation-free. *)
let deriv_cols ~lambdas ~c ~ratios ~steals ~(ys : Mat.t) ~(dys : Mat.t)
    ~cols =
  let n = Bigarray.Array2.dim1 ys in
  let na = cols.Active.n in
  let cf = float_of_int c in
  for j = 0 to na - 1 do
    let k = Array.unsafe_get cols.Active.idx j in
    let lambda = Array.unsafe_get lambdas k in
    Array.unsafe_set ratios k (Tail.boundary_ratio_col ys k);
    let y1 = Bigarray.Array2.unsafe_get ys 1 k
    and y2 = Bigarray.Array2.unsafe_get ys 2 k in
    let steal_rate = cf *. (y1 -. y2) in
    Array.unsafe_set steals k steal_rate;
    let succ =
      Tail.ext_col ys ~ratio:(Array.unsafe_get ratios k) k (c + 1)
    in
    Bigarray.Array2.unsafe_set dys 0 k 0.0;
    Bigarray.Array2.unsafe_set dys 1 k
      ((lambda *. (Bigarray.Array2.unsafe_get ys 0 k -. y1))
      -. (steal_rate *. (1.0 -. succ)))
  done;
  for i = 2 to n - 1 do
    for j = 0 to na - 1 do
      let k = Array.unsafe_get cols.Active.idx j in
      let lambda = Array.unsafe_get lambdas k in
      let ratio = Array.unsafe_get ratios k in
      let yi = Bigarray.Array2.unsafe_get ys i k in
      let drain = cf *. (yi -. Tail.ext_col ys ~ratio k (i + 1)) in
      if i <= c then
        Bigarray.Array2.unsafe_set dys i k
          ((lambda *. (Bigarray.Array2.unsafe_get ys 0 k -. yi))
          +. (Array.unsafe_get steals k *. Tail.ext_col ys ~ratio k (i + c))
          -. drain)
      else
        Bigarray.Array2.unsafe_set dys i k
          ((lambda *. (Bigarray.Array2.unsafe_get ys (i - c) k -. yi))
          -. drain
          -. ((Bigarray.Array2.unsafe_get ys 1 k
              -. Bigarray.Array2.unsafe_get ys 2 k)
             *. cf
             *. (yi -. Tail.ext_col ys ~ratio k (i + c))))
    done
  done

let default_task_depth ~lambda =
  (* Deep enough that the (stealing-accelerated) task tail is far into its
     geometric regime; the closure absorbs the rest. *)
  let q = Simple_ws.tail_ratio_exact ~lambda in
  let depth =
    if q <= 0.0 then 24
    else int_of_float (Float.ceil (log 1e-5 /. log (Float.min 0.99 q)))
  in
  max 24 (min 60 depth)

let model ~lambda ~stages ?task_depth () =
  if stages < 1 then invalid_arg "Erlang_ws: stages must be at least 1";
  let task_depth =
    match task_depth with
    | Some d -> max 4 d
    | None -> default_task_depth ~lambda
  in
  let dim = (task_depth * stages) + 2 in
  let base =
    Model.of_single_tail
      ~name:(Printf.sprintf "erlang_ws(lambda=%g, c=%d)" lambda stages)
      ~kind:"erlang" ~ints:[ stages ] ~lambda ~dim
      ~deriv:(fun ~y ~dy -> deriv ~lambda ~c:stages ~y ~dy)
      ~probe:(fun ~y ~dy -> deriv ~lambda:Model.generic ~c:stages ~y ~dy)
      ~warm_ratio:(lambda ** (1.0 /. float_of_int stages))
      ~suggested_dt:(1.0 /. float_of_int ((2 * stages) + 2))
      ()
  in
  { base with mean_tasks = mean_tasks ~stages }

let batch ~lambdas ~stages ?task_depth () =
  if stages < 1 then invalid_arg "Erlang_ws.batch: stages must be at least 1";
  let k = Array.length lambdas in
  if k = 0 then invalid_arg "Erlang_ws.batch: empty lambda grid";
  (* One shared truncation depth — a batch lives in one state matrix. *)
  let task_depth =
    match task_depth with
    | Some d -> max 4 d
    | None ->
        Array.fold_left
          (fun acc lambda -> max acc (default_task_depth ~lambda))
          4 lambdas
  in
  let lambdas = Array.copy lambdas in
  let ratios = Array.make k 0.0 in
  let steals = Array.make k 0.0 in
  let dc ~ys ~dys ~cols =
    deriv_cols ~lambdas ~c:stages ~ratios ~steals ~ys ~dys ~cols
  in
  Array.map
    (fun lambda ->
      {
        (model ~lambda ~stages ~task_depth ()) with
        Model.deriv_cols = Some dc;
      })
    lambdas
