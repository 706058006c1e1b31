open Numerics

(* Packed layout: segment 0 is s, segments 1..k are the waiting
   populations by remaining transfer stage; each segment holds indices
   0..depth. Segment j starts at j·(depth+1). *)

type layout = { depth : int; stages : int }

let seg_of_dim dim stages = { depth = (dim / (stages + 1)) - 1; stages }

(* Level [i] of segment [j]: the packed layout's offset, over the
   shared inlined reader. *)
let[@inline] seg y depth j i = Tail.seg_get y ~off:(j * (depth + 1)) ~depth i

let deriv ~lambda ~r ~t ~lay ~y ~dy =
  let { depth; stages = k } = lay in
  let nu = float_of_int k *. r in
  let attempt = seg y depth 0 1 -. seg y depth 0 2 in
  let pool =
    let acc = ref (seg y depth 0 t) in
    for j = 1 to k do
      acc := !acc +. seg y depth j t
    done;
    !acc
  in
  (* non-waiting segment *)
  dy.(0) <- (nu *. seg y depth k 0) -. (attempt *. pool);
  dy.(1) <-
    (lambda *. (seg y depth 0 0 -. seg y depth 0 1))
    +. (nu *. seg y depth k 0)
    -. attempt;
  for i = 2 to depth do
    let drain = seg y depth 0 i -. seg y depth 0 (i + 1) in
    let steal_loss = if i >= t then drain *. attempt else 0.0 in
    dy.(i) <-
      (lambda *. (seg y depth 0 (i - 1) -. seg y depth 0 i))
      +. (nu *. seg y depth k (i - 1))
      -. drain -. steal_loss
  done;
  (* waiting segments *)
  for j = 1 to k do
    let base = j * (depth + 1) in
    let inflow0 =
      if j = 1 then attempt *. pool else nu *. seg y depth (j - 1) 0
    in
    dy.(base) <- inflow0 -. (nu *. seg y depth j 0);
    for i = 1 to depth do
      let drain = seg y depth j i -. seg y depth j (i + 1) in
      let steal_loss = if i >= t then drain *. attempt else 0.0 in
      let stage_in = if j = 1 then 0.0 else nu *. seg y depth (j - 1) i in
      dy.(base + i) <-
        (lambda *. (seg y depth j (i - 1) -. seg y depth j i))
        +. stage_in
        -. (nu *. seg y depth j i)
        -. drain -. steal_loss
    done
  done

let mean_tasks ~lay y =
  let { depth; stages = k } = lay in
  let acc = ref (Tail.seg_mean_tasks y ~off:0 ~depth) in
  for j = 1 to k do
    let off = j * (depth + 1) in
    (* the in-transit task counts once per waiting processor *)
    acc := !acc +. y.(off) +. Tail.seg_mean_tasks y ~off ~depth
  done;
  !acc

let validate ~lay y =
  let { depth; stages = k } = lay in
  let ok = ref true in
  let mass = ref 0.0 in
  for j = 0 to k do
    let off = j * (depth + 1) in
    mass := !mass +. y.(off);
    for i = 0 to depth do
      if y.(off + i) < -1e-7 then ok := false;
      if i > 0 && y.(off + i) > y.(off + i - 1) +. 1e-7 then ok := false
    done
  done;
  !ok && Float.abs (!mass -. 1.0) <= 1e-6

let model ~lambda ~transfer_rate ~threshold ?(stages = 1) ?depth () =
  if transfer_rate <= 0.0 then
    invalid_arg "Transfer_ws: transfer_rate must be positive";
  if threshold < 2 then
    invalid_arg "Transfer_ws: threshold must be at least 2";
  if stages < 1 then invalid_arg "Transfer_ws: stages must be at least 1";
  if lambda < 0.0 || lambda >= 1.0 then
    invalid_arg "Transfer_ws: need 0 <= lambda < 1";
  let depth =
    match depth with
    | Some d -> max (threshold + 4) d
    | None -> max (threshold + 8) (Tail.suggested_dim ~lambda ())
  in
  let lay = { depth; stages } in
  let dim = (stages + 1) * (depth + 1) in
  let initial_empty () =
    let y = Vec.create dim in
    y.(0) <- 1.0;
    y
  in
  let initial_warm () =
    let y = Vec.create dim in
    for i = 0 to depth do
      y.(i) <- lambda ** float_of_int i
    done;
    y
  in
  {
    Model.name =
      (if stages = 1 then
         Printf.sprintf "transfer_ws(lambda=%g, r=%g, T=%d)" lambda
           transfer_rate threshold
       else
         Printf.sprintf "transfer_ws(lambda=%g, r=%g, T=%d, stages=%d)"
           lambda transfer_rate threshold stages);
    dim;
    throughput = lambda;
    deriv =
      (fun ~y ~dy ->
        deriv ~lambda ~r:transfer_rate ~t:threshold ~lay ~y ~dy);
    deriv_cols = None;
    initial_empty;
    initial_warm;
    mean_tasks = mean_tasks ~lay;
    predicted_tail_ratio = None;
    validate = validate ~lay;
    suggested_dt =
      Float.min 0.25
        (0.5 /. (1.0 +. (float_of_int stages *. transfer_rate)));
    structure =
      Model.structure ~kind:"transfer" ~ints:[ threshold; stages ] ~dim
        (fun ~y ~dy ->
          deriv ~lambda:Model.generic ~r:Model.generic ~t:threshold ~lay ~y
            ~dy);
    segments = List.init (stages + 1) (fun j -> (j * (depth + 1), depth));
  }

(* The public splitters aggregate the waiting stages so callers see the
   same two-vector view regardless of the stage count. The stage count is
   recovered from the constructor-generated name (this module writes it,
   so the format is under our control). *)
let find_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let layout_of (m : Model.t) =
  let stages =
    match find_substring m.Model.name "stages=" with
    | None -> 1
    | Some idx ->
        let rest =
          String.sub m.Model.name (idx + 7)
            (String.length m.Model.name - idx - 7)
        in
        let digits = Buffer.create 4 in
        String.iter
          (fun c ->
            if c >= '0' && c <= '9' && Buffer.length digits < 6 then
              Buffer.add_char digits c)
          (String.sub rest 0 (min 6 (String.length rest)));
        (match int_of_string_opt (Buffer.contents digits) with
        | Some k when k >= 1 -> k
        | Some _ | None -> 1)
  in
  seg_of_dim m.Model.dim stages

let split (m : Model.t) y =
  let { depth; stages = k } = layout_of m in
  let s = Array.sub y 0 (depth + 1) in
  let w = Vec.create (depth + 1) in
  for j = 1 to k do
    let off = j * (depth + 1) in
    for i = 0 to depth do
      w.(i) <- w.(i) +. y.(off + i)
    done
  done;
  (s, w)

let waiting_fraction (m : Model.t) y =
  let { depth; stages = k } = layout_of m in
  let acc = ref 0.0 in
  for j = 1 to k do
    acc := !acc +. y.(j * (depth + 1))
  done;
  !acc
