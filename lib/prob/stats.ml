(* Welford's online mean/variance. The record is all-float on purpose:
   a record whose fields are all [float] is stored flat, so the three
   stores in [add] write raw doubles instead of boxing. The count is kept
   as a float ([nf]); incrementing by 1.0 is exact far beyond any
   achievable sample count (2^53), so every derived quantity is
   bit-identical to the previous int-counted implementation. *)
type t = { mutable nf : float; mutable mean : float; mutable m2 : float }

let create () = { nf = 0.0; mean = 0.0; m2 = 0.0 }

let reset t =
  t.nf <- 0.0;
  t.mean <- 0.0;
  t.m2 <- 0.0

let[@inline] add t x =
  t.nf <- t.nf +. 1.0;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.nf);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let count t = int_of_float t.nf
let total t = t.mean *. t.nf
let mean t = if count t = 0 then nan else t.mean
let variance t = if count t < 2 then nan else t.m2 /. (t.nf -. 1.0)
let stddev t = sqrt (variance t)

let ci95_halfwidth t =
  if count t < 2 then nan else 1.96 *. stddev t /. sqrt t.nf

let merge a b =
  if count a = 0 then { nf = b.nf; mean = b.mean; m2 = b.m2 }
  else if count b = 0 then { nf = a.nf; mean = a.mean; m2 = a.m2 }
  else begin
    let na = a.nf and nb = b.nf in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. nb /. (na +. nb)) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. (na +. nb)) in
    { nf = na +. nb; mean; m2 }
  end

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
}

let summarize xs =
  let n = Array.length xs in
  if n = 0 then { n = 0; mean = nan; std = nan; min = nan; max = nan }
  else begin
    let acc = create () in
    let mn = ref xs.(0) and mx = ref xs.(0) in
    Array.iter
      (fun x ->
        add acc x;
        if x < !mn then mn := x;
        if x > !mx then mx := x)
      xs;
    { n; mean = mean acc; std = stddev acc; min = !mn; max = !mx }
  end

let quantile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: empty array";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.quantile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let w = pos -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end
