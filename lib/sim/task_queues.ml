type flane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ilane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable arena : flane; (* every queue's ring segment *)
  mutable bump : int; (* first arena slot no segment owns *)
  off : ilane; (* segment start *)
  cap : ilane; (* segment length, a power of two *)
  head : ilane; (* index of the front stamp within the segment *)
  len : ilane;
}

let create ~procs ~capacity =
  let cap0 =
    let rec go x = if x >= capacity then x else go (2 * x) in
    go 1
  in
  let lane () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout procs in
  let off = lane () and cap = lane () and head = lane () and len = lane () in
  for i = 0 to procs - 1 do
    off.{i} <- i * cap0
  done;
  Bigarray.Array1.fill cap cap0;
  Bigarray.Array1.fill head 0;
  Bigarray.Array1.fill len 0;
  {
    arena =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (procs * cap0);
    bump = procs * cap0;
    off;
    cap;
    head;
    len;
  }

let[@inline] length t i = t.len.{i}

(* lint: allow zero-alloc: Bigarray ring-segment doubling, amortized O(1) and absent in steady state *)
let grow t i =
  let cap = t.cap.{i} and off = t.off.{i} and head = t.head.{i} in
  let ncap = 2 * cap in
  let dim = Bigarray.Array1.dim t.arena in
  if t.bump + ncap > dim then begin
    let fresh =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
        (max (2 * dim) (t.bump + ncap))
    in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.arena 0 t.bump)
      (Bigarray.Array1.sub fresh 0 t.bump);
    t.arena <- fresh
  end;
  let noff = t.bump in
  t.bump <- t.bump + ncap;
  let arena = t.arena in
  for k = 0 to t.len.{i} - 1 do
    arena.{noff + k} <- arena.{off + ((head + k) land (cap - 1))}
  done;
  t.off.{i} <- noff;
  t.cap.{i} <- ncap;
  t.head.{i} <- 0

(* Inlined so the stamp moves through registers: a float passed to or
   returned from a function that is not inlined is boxed. *)
let[@inline] push_back t i x =
  let len = t.len.{i} in
  if len = t.cap.{i} then grow t i;
  t.arena.{t.off.{i} + ((t.head.{i} + len) land (t.cap.{i} - 1))} <- x;
  t.len.{i} <- len + 1

let[@inline] pop_front t i =
  let head = t.head.{i} in
  let x = t.arena.{t.off.{i} + head} in
  t.head.{i} <- (head + 1) land (t.cap.{i} - 1);
  t.len.{i} <- t.len.{i} - 1;
  x

let[@inline] pop_back t i =
  let len = t.len.{i} - 1 in
  let x = t.arena.{t.off.{i} + ((t.head.{i} + len) land (t.cap.{i} - 1))} in
  t.len.{i} <- len;
  x
