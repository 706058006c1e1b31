(** Structure-of-arrays state matrix for batched solves: rows are state
    components, columns are independent problem instances (λ-points or
    cache-miss queries). Backed by a C-layout float64 [Bigarray] so one
    row is contiguous — the batched steppers sweep rows in the outer
    loop and active columns in the inner loop, touching memory in
    stride-1 runs across the batch. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

val create : rows:int -> cols:int -> t
(** Fresh matrix, zero-filled. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** [get m i k] is row [i] of column [k]. *)

val set : t -> int -> int -> float -> unit
val fill : t -> float -> unit

val col_copy : t -> int -> Vec.t
(** Fresh vector holding column [k]. *)

val set_col : t -> int -> Vec.t -> unit
(** Write a vector into column [k]; dimension-checked. *)

val blit_col : src:t -> scol:int -> dst:t -> dcol:int -> unit
(** Copy one column between equally-tall matrices. *)

val col_norm_inf : t -> int -> float
(** Max-norm of column [k]. *)
