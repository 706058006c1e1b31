open Numerics

let tail_ratio_predicted ~lambda s ~begin_at =
  lambda /. (1.0 +. lambda -. s.(begin_at + 2))

let deriv ~lambda ~b ~t ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  dy.(0) <- 0.0;
  for i = 1 to n - 1 do
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    let arrive = lambda *. (y.(i - 1) -. y.(i)) in
    if i <= b + 1 then
      (* Completion leaves the thief at load i-1 ≤ B: it attempts a steal
         from a victim with ≥ i+T-1 tasks, and on success its own level is
         instantly restored. *)
      dy.(i) <- arrive -. (drain *. (1.0 -. Tail.get y ~ratio (i + t - 1)))
    else if i <= t - 1 then dy.(i) <- arrive -. drain
    else begin
      (* Victim side: thieves at levels j ≤ min(B, i-T) target exactly-i
         victims; their aggregate completion-rate density telescopes. *)
      let cut = min (b + 2) (i - t + 2) in
      let thief_rate = y.(1) -. Tail.get y ~ratio cut in
      dy.(i) <- arrive -. drain -. (drain *. thief_rate)
    end
  done

let model ~lambda ~begin_at ~offset ?dim () =
  if begin_at < 0 then invalid_arg "Preemptive_ws: begin_at must be >= 0";
  if offset < begin_at + 2 then
    invalid_arg "Preemptive_ws: need offset >= begin_at + 2";
  let dim =
    match dim with
    | Some d -> d
    | None ->
        max (begin_at + offset + 8) (Tail.suggested_dim ~lambda ())
  in
  Model.of_single_tail
    ~name:
      (Printf.sprintf "preemptive_ws(lambda=%g, B=%d, T=%d)" lambda begin_at
         offset)
    ~kind:"preemptive" ~ints:[ begin_at; offset ] ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~b:begin_at ~t:offset ~y ~dy)
    ~probe:(fun ~y ~dy ->
      deriv ~lambda:Model.generic ~b:begin_at ~t:offset ~y ~dy)
    ~predicted_tail_ratio:(fun s ->
      tail_ratio_predicted ~lambda s ~begin_at)
    ()
