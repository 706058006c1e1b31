(** Sparse Jacobians of vector fields, and the LU that solves with them.

    The mean-field models' Jacobians are banded plus a few dense columns
    (the steal-attempt rate reads levels 1 and 2 in every row), so a
    Newton step needs neither [dim] derivative evaluations per Jacobian
    nor a dense factorisation. This module supplies the three pieces,
    each computed once per sparsity structure and reused for every
    Jacobian of that structure:

    + the {e pattern}: which entries can be non-zero, found by probing
      the vector field at generic states;
    + a {e CPR colouring}: columns that share no row are perturbed
      together, so one forward difference per colour recovers the
      whole Jacobian;
    + a {e symbolic LU}: a symmetric ordering (reverse Cuthill–McKee on
      the sparse part, the dense columns last) and the fill pattern of
      its factorisation without pivoting.

    The numeric factorisation of [σI − J] then runs over that fixed
    pattern; it reports failure on a vanishing or non-finite pivot
    instead of pivoting, and callers answer that by raising [σ], which
    makes the matrix more diagonally dominant. *)

type pattern = {
  n : int;  (** Dimension. *)
  colptr : int array;
      (** Compressed columns: the row indices of column [j] are
          [rowidx.(colptr.(j)) .. rowidx.(colptr.(j+1) - 1)]. *)
  rowidx : int array;  (** Row indices, ascending within each column. *)
}
(** Possible non-zeros of a Jacobian, always including the diagonal.
    Read-only by contract. *)

val find_pattern :
  n:int -> (y:Vec.t -> dy:Vec.t -> unit) -> Vec.t -> pattern
(** [find_pattern ~n f state] holds the entries [(i, j)] for which
    halving [state.(j)] changes [dy.(i)] at all, plus the diagonal; the
    state's components should be positive. It costs [n + 1] calls of
    [f]. A row that does not read [y.(j)] never changes, so the pattern
    has no spurious entries; a dependence too weak to move [dy.(i)] by
    one rounding unit is dropped. *)

val generic_state : int -> Vec.t
(** A fixed, strictly decreasing, positive state of dimension [n] with
    irregular level-to-level ratios between 0.95 and 0.97: a probe point
    at which no model's derivative sits on a branch boundary or has a
    coincidental zero, and whose deep levels stay far above rounding
    even at [n] in the thousands. It depends on [n] alone. *)

type structure
(** A pattern with its colouring and symbolic LU. Immutable, so one
    value may be shared by every domain. *)

val analyse : pattern -> structure

val colours : structure -> int
(** Forward-difference evaluations per Jacobian. *)

val nnz : structure -> int
(** Entries of the pattern. *)

val fill : structure -> int
(** Entries of [L + U] (the pattern plus fill-in). *)

val flops : structure -> int
(** Floating-point operations of one numeric factorisation:
    per eliminated entry one division, and a multiply and a subtract
    per entry of the pivot row it updates. *)

val dense_columns : structure -> int
(** Columns ordered last as dense (adjacent to more than
    [max 24 (dim / 4)] others). *)

type work
(** Float scratch for one Jacobian and its factorisation. Not shareable
    between concurrent solves; reusable across every structure it is
    large enough for. *)

val work : structure -> work

val grow : structure -> work -> work
(** [grow st w] is [w] when it is large enough for [st], otherwise a
    fresh work sized to the larger of the two in every dimension. *)

val jacobian :
  structure ->
  work ->
  f:(y:Vec.t -> dy:Vec.t -> unit) ->
  x:Vec.t ->
  fx:Vec.t ->
  xp:Vec.t ->
  fp:Vec.t ->
  unit
(** Forward-difference Jacobian of [f] at [x] into [work], given
    [fx = f(x)]: one call of [f] per colour, with the relative step
    [h_j = 1.5e-8·|x_j|] (floored at 1.5e-308 for [x_j = 0]). The step
    stays relative on deep tail levels of 1e-20 and below, where an
    absolute floor would be orders of magnitude larger than the level
    itself and the geometric tail closure, which is nonlinear in the
    last two levels, would read a flat tail into their columns. [xp]
    and [fp] are caller scratch of the structure's dimension ([f] receives
    [xp]); [x] and [fx] are not modified. *)

val factor : structure -> work -> sigma:float -> bool
(** LU of [σI − J] for the last {!jacobian}, in the symbolic order,
    without pivoting. [false] when a pivot is zero, subnormal or not
    finite; the Jacobian itself is kept, so a retry with a larger
    [sigma] needs no new evaluations. *)

val solve : structure -> work -> b:Vec.t -> x:Vec.t -> unit
(** Solve [(σI − J)·x = b] with the last successful {!factor}. [x] and
    [b] must be distinct vectors of the structure's dimension. *)

val to_dense : structure -> work -> float array array
(** The last {!jacobian} as a dense row-major matrix, in the original
    ordering — for tests. *)
