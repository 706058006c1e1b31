type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Mat.create: rows and cols must be positive";
  let m = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout rows cols in
  Bigarray.Array2.fill m 0.0;
  m

let rows = Bigarray.Array2.dim1
let cols = Bigarray.Array2.dim2
let get m i k = Bigarray.Array2.get m i k
let set m i k v = Bigarray.Array2.set m i k v
let fill m v = Bigarray.Array2.fill m v

let col_copy m k =
  let n = rows m in
  Array.init n (fun i -> Bigarray.Array2.get m i k)

let set_col m k v =
  if Vec.dim v <> rows m then invalid_arg "Mat.set_col: dimension mismatch";
  for i = 0 to rows m - 1 do
    Bigarray.Array2.set m i k v.(i)
  done

let blit_col ~src ~scol ~dst ~dcol =
  if rows src <> rows dst then invalid_arg "Mat.blit_col: row mismatch";
  for i = 0 to rows src - 1 do
    Bigarray.Array2.set dst i dcol (Bigarray.Array2.get src i scol)
  done

let col_norm_inf m k =
  let best = ref 0.0 in
  for i = 0 to rows m - 1 do
    let a = Float.abs (Bigarray.Array2.get m i k) in
    if a > !best then best := a
  done;
  !best
