open Numerics

let empty ~dim ~mass =
  if dim < 3 then invalid_arg "Tail.empty: dim must be at least 3";
  let v = Vec.create dim in
  v.(0) <- mass;
  v

let geometric ~dim ~ratio ~mass =
  if dim < 3 then invalid_arg "Tail.geometric: dim must be at least 3";
  if ratio < 0.0 || ratio >= 1.0 then
    invalid_arg "Tail.geometric: ratio must lie in [0, 1)";
  Vec.init dim (fun i -> mass *. (ratio ** float_of_int i))

let is_valid ?(eps = 1e-7) ?(mass = 1.0) s =
  let n = Vec.dim s in
  n >= 2
  && Float.abs (s.(0) -. mass) <= eps
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         if s.(i) < -.eps || s.(i) > mass +. eps then ok := false;
         if i > 0 && s.(i) > s.(i - 1) +. eps then ok := false
       done;
       !ok
     end

let boundary_ratio s =
  let n = Vec.dim s in
  let a = s.(n - 1) and b = s.(n - 2) in
  if b <= 1e-250 || a <= 0.0 then 0.0
  else Float.min 0.999999 (Float.max 0.0 (a /. b))

(* [ext], [get], [ipow] and the column readers below are [@inline]:
   they run once or more per row of every derivative sweep, and without
   flambda a float returned from a call that is not inlined is boxed. *)
let[@inline] ext s ~ratio i =
  let n = Array.length s in
  if i < 0 then invalid_arg "Tail.ext: negative index"
  else if i < n then s.(i)
  else if ratio <= 0.0 then 0.0
  else s.(n - 1) *. (ratio ** float_of_int (i - n + 1))

let[@inline] get s ~ratio i =
  if i < Array.length s then s.(i) else ext s ~ratio i

(* Square-and-multiply, in the multiplication order of the recursive
   form it replaced, so every result is bit-identical to it. *)
let[@inline] ipow x d =
  let acc = ref 1.0 and x = ref x and d = ref d in
  while !d <> 0 do
    if !d land 1 = 1 then acc := !acc *. !x;
    x := !x *. !x;
    d := !d asr 1
  done;
  !acc

(* (1 - a)^d - (1 - b)^d as (b - a)·Σ_{k<d} (1 - a)^k (1 - b)^(d-1-k),
   the sum by running products (S_m = S_{m-1}·(1 - b) + (1 - a)^(m-1)):
   the subtraction of two nearly equal powers cancels to noise once a
   and b fall below ~1e-8, the factored form keeps full precision. *)
let[@inline] pow_diff a b d =
  let p = 1.0 -. a and q = 1.0 -. b in
  let acc = ref 0.0 and pk = ref 1.0 and m = ref d in
  while !m <> 0 do
    acc := (!acc *. q) +. !pk;
    pk := !pk *. p;
    m := !m - 1
  done;
  (b -. a) *. !acc

(* Multi-segment states pack one tail per segment at
   [y.(off) .. y.(off + depth)]. The clamp is a bare comparison, which
   returns what [Float.min 0.999999] would on every input, NaN
   included, and keeps the inlined reader free of calls. *)
let[@inline] seg_ratio (y : Vec.t) ~off ~depth =
  let a = y.(off + depth) and b = y.(off + depth - 1) in
  if b <= 1e-250 || a <= 0.0 then 0.0
  else begin
    let q = a /. b in
    if q > 0.999999 then 0.999999 else q
  end

let[@inline] seg_get (y : Vec.t) ~off ~depth i =
  if i <= depth then y.(off + i) else y.(off + depth) *. seg_ratio y ~off ~depth

let seg_mean_tasks y ~off ~depth =
  let acc = ref 0.0 in
  for i = 1 to depth do
    acc := !acc +. y.(off + i)
  done;
  let rho = seg_ratio y ~off ~depth in
  if rho > 0.0 then acc := !acc +. (y.(off + depth) *. rho /. (1.0 -. rho));
  !acc

(* Column variants of {!boundary_ratio}/{!ext} for the batched kernels,
   mirroring the scalar arithmetic operation-for-operation so a
   hand-batched derivative is bit-identical to the scalar one on the
   same column. The clamps are spelled as bare comparisons (not
   Float.min/max) because these run inside zero-alloc-audited loops;
   for the positive finite ratios that reach them the result is the
   same float. *)
let[@inline] boundary_ratio_col (ys : Mat.t) k =
  let n = Bigarray.Array2.dim1 ys in
  let a = Bigarray.Array2.get ys (n - 1) k
  and b = Bigarray.Array2.get ys (n - 2) k in
  if b <= 1e-250 || a <= 0.0 then 0.0
  else begin
    let q = a /. b in
    let q = if q < 0.0 then 0.0 else q in
    if q > 0.999999 then 0.999999 else q
  end

let[@inline] ext_col (ys : Mat.t) ~ratio k i =
  let n = Bigarray.Array2.dim1 ys in
  if i < n then Bigarray.Array2.get ys i k
  else if ratio <= 0.0 then 0.0
  else
    Bigarray.Array2.get ys (n - 1) k *. (ratio ** float_of_int (i - n + 1))

let mean_tasks ?(from = 1) s =
  let base = Vec.sum_from s from in
  let ratio = boundary_ratio s in
  let closure =
    if ratio <= 0.0 then 0.0
    else s.(Vec.dim s - 1) *. ratio /. (1.0 -. ratio)
  in
  base +. closure

let suggested_dim ~lambda ?(floor = 48) ?(cap = 512) () =
  if lambda <= 0.0 then floor
  else if lambda >= 1.0 then cap
  else begin
    let depth = int_of_float (Float.ceil (log 1e-10 /. log lambda)) in
    max floor (min cap depth)
  end
