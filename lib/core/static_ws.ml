open Numerics

(* Spawn/arrival rate at load [j]; loads past the table reuse its last
   entry. *)
let[@inline] arrival_at (arrivals : float array) j =
  let m = Array.length arrivals in
  if j < m then arrivals.(j) else arrivals.(m - 1)

let deriv ~arrivals ~stealing ~t ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let attempt = y.(1) -. y.(2) in
  let s_t = Tail.get y ~ratio t in
  dy.(0) <- 0.0;
  for i = 1 to n - 1 do
    (* a processor at load i-1 spawns/receives at its load-(i-1) rate *)
    let arrive = arrival_at arrivals (i - 1) *. (y.(i - 1) -. y.(i)) in
    let drain = y.(i) -. Tail.get y ~ratio (i + 1) in
    if i = 1 then begin
      let keep = if stealing then 1.0 -. s_t else 1.0 in
      dy.(i) <- arrive -. (drain *. keep)
    end
    else begin
      let steal_loss =
        if stealing && i >= t then drain *. attempt else 0.0
      in
      dy.(i) <- arrive -. drain -. steal_loss
    end
  done

let model ~arrival ?(threshold = 2) ?(stealing = true) ?(initial_load = 0)
    ~dim () =
  if threshold < 2 then invalid_arg "Static_ws: threshold must be >= 2";
  if initial_load < 0 || initial_load > dim - 3 then
    invalid_arg "Static_ws: initial_load out of range for dim";
  let arrivals = Array.init (dim + 1) arrival in
  Array.iteri
    (fun i a ->
      if a < 0.0 then
        invalid_arg (Printf.sprintf "Static_ws: arrival %d is negative" i))
    arrivals;
  let load_independent =
    Array.for_all (fun a -> Float.abs (a -. arrivals.(0)) < 1e-12) arrivals
  in
  let initial_empty () =
    let y = Vec.create dim in
    for i = 0 to initial_load do
      y.(i) <- 1.0
    done;
    y
  in
  {
    Model.name =
      Printf.sprintf "static_ws(T=%d, stealing=%b, load0=%d)" threshold
        stealing initial_load;
    dim;
    throughput = (if load_independent then arrivals.(0) else 0.0);
    deriv = (fun ~y ~dy -> deriv ~arrivals ~stealing ~t:threshold ~y ~dy);
    deriv_cols = None;
    initial_empty;
    initial_warm = initial_empty;
    mean_tasks = (fun s -> Tail.mean_tasks ~from:1 s);
    predicted_tail_ratio = None;
    validate = (fun s -> Tail.is_valid ~mass:1.0 s);
    suggested_dt =
      (let max_arrival = Array.fold_left Float.max 0.0 arrivals in
       Float.min 0.25 (0.5 /. (1.0 +. max_arrival)));
    structure =
      Model.structure ~kind:"static"
        ~ints:[ threshold; Bool.to_int stealing ]
        ~dim
        (fun ~y ~dy ->
          deriv
            ~arrivals:(Array.make (Array.length arrivals) Model.generic)
            ~stealing ~t:threshold ~y ~dy);
    segments = [ (0, dim - 1) ];
  }

let backlog_integral ?(dt = 0.02) ?(horizon = 200.0) model =
  let y = model.Model.initial_empty () in
  let sys = Model.as_system model in
  let times = ref [] and loads = ref [] in
  Ode.observe sys ~y ~t0:0.0 ~t1:horizon ~dt ~sample_every:(4.0 *. dt)
    (fun t s ->
      times := t :: !times;
      loads := model.Model.mean_tasks s :: !loads);
  Quadrature.trapezoid_samples
    ~xs:(Vec.of_list (List.rev !times))
    ~ys:(Vec.of_list (List.rev !loads))

let drain_time ?(dt = 0.02) ?(eps = 1e-3) ?(horizon = 500.0) model =
  let y = model.Model.initial_empty () in
  let sys = Model.as_system model in
  let found = ref None in
  (try
     Ode.observe sys ~y ~t0:0.0 ~t1:horizon ~dt ~sample_every:dt (fun t s ->
         if Option.is_none !found && model.Model.mean_tasks s < eps then begin
           found := Some t;
           raise Exit
         end)
   with Exit -> ());
  !found
