open Numerics

type structure = { key : string; probe : y:Vec.t -> dy:Vec.t -> unit }

type t = {
  name : string;
  dim : int;
  throughput : float;
  deriv : y:Vec.t -> dy:Vec.t -> unit;
  deriv_cols : (ys:Mat.t -> dys:Mat.t -> cols:Active.t -> unit) option;
  initial_empty : unit -> Vec.t;
  initial_warm : unit -> Vec.t;
  mean_tasks : Vec.t -> float;
  predicted_tail_ratio : (Vec.t -> float) option;
  validate : Vec.t -> bool;
  suggested_dt : float;
  structure : structure;
  segments : (int * int) list;
}

let generic = 0.6180339887498949

let structure ~kind ?(ints = []) ~dim probe =
  {
    key = String.concat "," (kind :: List.map string_of_int (dim :: ints));
    probe;
  }

let as_system m =
  { Ode.dim = m.dim; deriv = (fun ~t:_ ~y ~dy -> m.deriv ~y ~dy) }

let mean_time m state =
  if m.throughput <= 0.0 then nan else m.mean_tasks state /. m.throughput

let of_single_tail ~name ~kind ?ints ~lambda ~dim ~deriv ~probe ?deriv_cols
    ?predicted_tail_ratio ?warm_ratio ?(suggested_dt = 0.25) () =
  if dim < 4 then invalid_arg "Model.of_single_tail: dim too small";
  if lambda < 0.0 || lambda >= 1.0 then
    invalid_arg "Model.of_single_tail: need 0 <= lambda < 1 for stability";
  let warm_ratio = match warm_ratio with Some r -> r | None -> lambda in
  {
    name;
    dim;
    throughput = lambda;
    deriv;
    deriv_cols;
    initial_empty = (fun () -> Tail.empty ~dim ~mass:1.0);
    initial_warm = (fun () -> Tail.geometric ~dim ~ratio:warm_ratio ~mass:1.0);
    mean_tasks = (fun s -> Tail.mean_tasks ~from:1 s);
    predicted_tail_ratio;
    validate = (fun s -> Tail.is_valid ~mass:1.0 s);
    suggested_dt;
    structure = structure ~kind ?ints ~dim probe;
    segments = [ (0, dim - 1) ];
  }

(* Scalar bridge for variants without a hand-batched kernel: stage each
   active column through a pair of scratch vectors and run that column's
   own scalar derivative. Amortises the *stepper* (control flow, error
   test, step-size logic run once per batch round) but not the
   derivative arithmetic itself. The copies and the dispatch stay
   allocation-free; models may differ per column (each carries its own
   rate constants). *)
let fallback_deriv_cols models ybuf dybuf ~(ys : Mat.t) ~(dys : Mat.t)
    ~cols =
  let n = Array.length ybuf in
  for j = 0 to cols.Active.n - 1 do
    let k = Array.unsafe_get cols.Active.idx j in
    for i = 0 to n - 1 do
      Array.unsafe_set ybuf i (Bigarray.Array2.unsafe_get ys i k)
    done;
    (Array.unsafe_get models k).deriv ~y:ybuf ~dy:dybuf;
    for i = 0 to n - 1 do
      Bigarray.Array2.unsafe_set dys i k (Array.unsafe_get dybuf i)
    done
  done

let batch_deriv models =
  let k = Array.length models in
  if k = 0 then invalid_arg "Model.batch_deriv: empty batch";
  let m0 = models.(0) in
  Array.iter
    (fun m ->
      if m.dim <> m0.dim then
        invalid_arg "Model.batch_deriv: batch members must share one dim")
    models;
  (* A family's batch builder attaches one shared closure to every member;
     physical equality across the batch is the certificate that the
     hand-batched kernel really covers all K columns. Anything else —
     missing kernels, or models assembled from different builders — takes
     the scalar bridge. *)
  let hand =
    match m0.deriv_cols with
    | None -> false
    | Some dc ->
        Array.for_all
          (fun m ->
            match m.deriv_cols with Some d -> d == dc | None -> false)
          models
  in
  match (hand, m0.deriv_cols) with
  | true, Some dc -> (dc, true)
  | _ ->
      let ybuf = Vec.create m0.dim and dybuf = Vec.create m0.dim in
      ( (fun ~ys ~dys ~cols -> fallback_deriv_cols models ybuf dybuf ~ys ~dys ~cols),
        false )
