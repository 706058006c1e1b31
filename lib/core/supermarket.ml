open Numerics

let deriv ~lambda ~d ~steal ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let attempt = match steal with None -> 0.0 | Some _ -> y.(1) -. y.(2) in
  let s_t = match steal with None -> 0.0 | Some t -> Tail.get y ~ratio t in
  dy.(0) <- 0.0;
  for i = 1 to n - 1 do
    let arrive = lambda *. (Tail.ipow y.(i - 1) d -. Tail.ipow y.(i) d) in
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    let steal_adjust =
      match steal with
      | None -> 0.0
      | Some t ->
          if i = 1 then
            (* failed final-completion attempts leave s₁; successes are
               instantly restored, exactly as in Threshold_ws *)
            drain *. s_t
          else if i >= t then -.(drain *. attempt)
          else 0.0
    in
    (* i = 1 needs the drain written with the success compensation folded
       in: -(s1-s2)(1-s_T) = -drain + drain*s_T *)
    dy.(i) <- arrive -. drain +. steal_adjust
  done

let model ~lambda ~choices ?steal_threshold ?dim () =
  if choices < 1 then invalid_arg "Supermarket: choices must be at least 1";
  (match steal_threshold with
  | Some t when t < 2 ->
      invalid_arg "Supermarket: steal_threshold must be at least 2"
  | Some _ | None -> ());
  let dim =
    match dim with Some d -> d | None -> Tail.suggested_dim ~lambda ()
  in
  let name =
    match steal_threshold with
    | None -> Printf.sprintf "supermarket(lambda=%g, d=%d)" lambda choices
    | Some t ->
        Printf.sprintf "supermarket_ws(lambda=%g, d=%d, T=%d)" lambda
          choices t
  in
  let steal_ints = Option.to_list steal_threshold in
  Model.of_single_tail ~name ~kind:"supermarket" ~ints:(choices :: steal_ints)
    ~lambda ~dim
    ~deriv:(fun ~y ~dy ->
      deriv ~lambda ~d:choices ~steal:steal_threshold ~y ~dy)
    ~probe:(fun ~y ~dy ->
      deriv ~lambda:Model.generic ~d:choices ~steal:steal_threshold ~y ~dy)
    ()

let fixed_point_exact ~lambda ~choices ~dim =
  if choices < 1 then invalid_arg "Supermarket: choices must be at least 1";
  let d = float_of_int choices in
  Vec.init dim (fun i ->
      if i = 0 then 1.0
      else begin
        (* exponent (d^i - 1)/(d - 1), which is i when d = 1 *)
        let expo =
          if choices = 1 then float_of_int i
          else ((d ** float_of_int i) -. 1.0) /. (d -. 1.0)
        in
        (* avoid underflow blowups: λ^expo for huge expo is just 0 *)
        if expo *. log lambda < -700.0 then 0.0 else lambda ** expo
      end)

let mean_tasks_exact ~lambda ~choices =
  let s = fixed_point_exact ~lambda ~choices ~dim:256 in
  (* doubly exponential decay: 256 terms is far beyond double precision *)
  Vec.sum_from s 1

let mean_time_exact ~lambda ~choices =
  mean_tasks_exact ~lambda ~choices /. lambda
