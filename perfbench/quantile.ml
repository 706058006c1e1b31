(* Exact quantiles over every sample of a run (no streaming estimates:
   P² readings of one replay moved 25 → 114 → 51 ms across identical
   runs). *)

(* Nearest-rank quantile of an ascending array: the smallest sample with
   at least a [p] share of the samples at or below it. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.nearest_rank: no samples";
  let k = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (k - 1)))

(* Samples strictly after the nearest-rank position of [p]: a workload's
   fixed tail percentile must leave at least 10. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s
