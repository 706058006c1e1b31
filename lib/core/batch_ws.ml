open Numerics

let utilization ~event_rate ~mean_batch = event_rate *. mean_batch

let deriv ~event_rate ~fail ~t ~y ~dy =
  (* fail = 1 - 1/mean_batch: per-extra-task continuation probability *)
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let attempt = y.(1) -. y.(2) in
  let s_t = Tail.get y ~ratio t in
  dy.(0) <- 0.0;
  (* G_i = sum_{j<i} p_j fail^(i-1-j): batch reach of level i *)
  let reach = ref 0.0 in
  for i = 1 to n - 1 do
    reach := (!reach *. fail) +. (y.(i - 1) -. y.(i));
    let arrive = event_rate *. !reach in
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    if i = 1 then dy.(i) <- arrive -. (drain *. (1.0 -. s_t))
    else begin
      let steal_loss = if i >= t then drain *. attempt else 0.0 in
      dy.(i) <- arrive -. drain -. steal_loss
    end
  done

let model ~event_rate ~mean_batch ?(threshold = 2) ?dim () =
  if mean_batch < 1.0 then
    invalid_arg "Batch_ws: mean_batch must be at least 1";
  if threshold < 2 then
    invalid_arg "Batch_ws: threshold must be at least 2";
  let rho = utilization ~event_rate ~mean_batch in
  if event_rate <= 0.0 || rho >= 1.0 then
    invalid_arg "Batch_ws: need 0 < event_rate x mean_batch < 1";
  let dim =
    match dim with
    | Some d -> d
    | None ->
        (* batches deepen the tail: size by rho and stretch by the batch *)
        max (threshold + 8)
          (min 768
             (int_of_float
                (Float.ceil
                   (float_of_int (Tail.suggested_dim ~lambda:rho ())
                   *. Float.max 1.0 (sqrt mean_batch)))))
  in
  let fail = 1.0 -. (1.0 /. mean_batch) in
  let base =
    Model.of_single_tail
      ~name:
        (Printf.sprintf "batch_ws(rate=%g, batch=%g, T=%d)" event_rate
           mean_batch threshold)
      ~lambda:rho ~dim
      ~deriv:(fun ~y ~dy -> deriv ~event_rate ~fail ~t:threshold ~y ~dy)
      ()
  in
  base
