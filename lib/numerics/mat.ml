type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

(* Every matrix parameter below is annotated with [t]: a function whose
   Bigarray argument is left to inference compiles polymorphic in kind
   and layout, so each access goes through the generic C accessor and
   boxes the float (the .mli type does not help). The accessors are
   [@inline] because without flambda even these one-liners are not
   inlined across modules, and a float returned from a call is boxed. *)

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Mat.create: rows and cols must be positive";
  let m = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout rows cols in
  Bigarray.Array2.fill m 0.0;
  m

let[@inline] rows (m : t) = Bigarray.Array2.dim1 m
let[@inline] cols (m : t) = Bigarray.Array2.dim2 m
let[@inline] get (m : t) i k = Bigarray.Array2.get m i k
let[@inline] set (m : t) i k v = Bigarray.Array2.set m i k v
let fill (m : t) v = Bigarray.Array2.fill m v

let col_copy (m : t) k =
  let n = rows m in
  Array.init n (fun i -> Bigarray.Array2.get m i k)

let set_col (m : t) k v =
  if Vec.dim v <> rows m then invalid_arg "Mat.set_col: dimension mismatch";
  for i = 0 to rows m - 1 do
    Bigarray.Array2.set m i k v.(i)
  done

let blit_col ~(src : t) ~scol ~(dst : t) ~dcol =
  if rows src <> rows dst then invalid_arg "Mat.blit_col: row mismatch";
  for i = 0 to rows src - 1 do
    Bigarray.Array2.set dst i dcol (Bigarray.Array2.get src i scol)
  done

let col_norm_inf (m : t) k =
  let best = ref 0.0 in
  for i = 0 to rows m - 1 do
    let a = Float.abs (Bigarray.Array2.get m i k) in
    if a > !best then best := a
  done;
  !best
