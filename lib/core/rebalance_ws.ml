open Numerics

(* The pairwise term sums, over load pairs (j, k) with j >= k + 2 and
   interaction weight x_jk = (r_j + r_k) p_j p_k, a +x contribution on
   tail levels (k, floor((j+k)/2)] and a -x contribution on levels
   (ceil((j+k)/2), j]. Pointwise that is the indicator identity

     ds_i += x_jk ( [j+k >= 2i] + [j+k >= 2i-1] - [j >= i] - [k >= i] )

   (the first two indicators are the two balanced occupancies, the last
   two the vacated ones), which splits the O(dim^2) double loop of
   range updates into
     - two separable sums over j alone / k alone, each a prefix-sum
       computation over p and u = r .* p, assembled by suffix sums in
       O(dim);
     - the anti-diagonal totals T(d) = sum over pairs with j + k = d of
       x_jk, consumed through their suffix sums.
   T is an autocorrelation of the mass vector, so its exact computation
   stays a pair loop over the support — but it is now four fused
   multiply-adds per pair with no branches, range splits or function
   calls, an order of magnitude leaner than the diff-array walk it
   replaces, and everything around it is O(dim). *)
let deriv ~lambda ~rates ~y ~dy =
  let n = Vec.dim y in
  let ratio = Tail.boundary_ratio y in
  let nrates = Array.length rates in
  let rate j = if j < nrates then rates.(j) else rates.(nrates - 1) in
  dy.(0) <- 0.0;
  for i = 1 to n - 1 do
    dy.(i) <-
      (lambda *. (y.(i - 1) -. y.(i))) -. (y.(i) -. Tail.get y ~ratio (i + 1))
  done;
  (* Point masses (clamped: a sub-rounding negative mass is noise, and
     the interaction must not turn it into a signed flow) and their
     effective support. *)
  let p =
    Array.init n (fun j ->
        let m = y.(j) -. Tail.get y ~ratio (j + 1) in
        if m > 0.0 then m else 0.0)
  in
  let support = ref (n - 1) in
  while !support > 0 && p.(!support) <= 1e-14 do
    decr support
  done;
  let s = !support in
  if s >= 2 then begin
    let u = Array.init (s + 1) (fun j -> rate j *. p.(j)) in
    (* prefix sums over masses and rate-weighted masses:
       ple.(j) = p_0 + ... + p_j (and 0 at j = -1, hence the +1 shift) *)
    let ple = Array.make (s + 2) 0.0 in
    let ule = Array.make (s + 2) 0.0 in
    for j = 0 to s do
      ple.(j + 1) <- ple.(j) +. p.(j);
      ule.(j + 1) <- ule.(j) +. u.(j)
    done;
    let ptot = ple.(s + 1) and utot = ule.(s + 1) in
    (* anti-diagonal totals of the interaction, d = j + k *)
    let tdiag = Array.make ((2 * s) + 1) 0.0 in
    for d = 2 to (2 * s) - 2 do
      let kmin = if d > s then d - s else 0 in
      let kmax = (d - 2) / 2 in
      let acc = ref 0.0 in
      for k = kmin to kmax do
        let j = d - k in
        acc := !acc +. (u.(j) *. p.(k)) +. (p.(j) *. u.(k))
      done;
      tdiag.(d) <- !acc
    done;
    (* suffix sums: tsuf.(d) = sum of tdiag over indices >= d *)
    let tsuf = Array.make ((2 * s) + 2) 0.0 in
    for d = (2 * s) - 2 downto 1 do
      tsuf.(d) <- tsuf.(d + 1) +. tdiag.(d)
    done;
    (* jw.(j) = total interaction of pairs whose larger load is j;
       kw.(k) = total whose smaller load is k *)
    let jsuf = Array.make (s + 2) 0.0 in
    let ksuf = Array.make (s + 2) 0.0 in
    for j = s downto 2 do
      let w = (u.(j) *. ple.(j - 1)) +. (p.(j) *. ule.(j - 1)) in
      jsuf.(j) <- jsuf.(j + 1) +. w
    done;
    jsuf.(1) <- jsuf.(2);
    for k = s - 2 downto 0 do
      let w =
        (p.(k) *. (utot -. ule.(k + 2))) +. (u.(k) *. (ptot -. ple.(k + 2)))
      in
      ksuf.(k) <- ksuf.(k + 1) +. w
    done;
    let top = (2 * s) + 1 in
    for i = 1 to s do
      let e = 2 * i in
      let m1 = if e <= top then tsuf.(e) else 0.0 in
      let m2 = tsuf.(e - 1) in
      dy.(i) <- dy.(i) +. (m1 +. m2 -. jsuf.(i) -. ksuf.(i))
    done
  end

let model ~lambda ~rate ?dim () =
  let dim =
    match dim with Some d -> d | None -> Tail.suggested_dim ~lambda ()
  in
  let rates = Array.init (dim + 2) rate in
  Array.iteri
    (fun i r ->
      if r < 0.0 then
        invalid_arg
          (Printf.sprintf "Rebalance_ws: rate %d is negative" i))
    rates;
  let max_rate = Array.fold_left Float.max 0.0 rates in
  Model.of_single_tail
    ~name:(Printf.sprintf "rebalance_ws(lambda=%g)" lambda)
    ~kind:"rebalance" ~lambda ~dim
    ~deriv:(fun ~y ~dy -> deriv ~lambda ~rates ~y ~dy)
    ~probe:(fun ~y ~dy ->
      deriv ~lambda:Model.generic
        ~rates:(Array.make (dim + 2) Model.generic)
        ~y ~dy)
    ~suggested_dt:(Float.min 0.25 (0.5 /. (1.0 +. (2.0 *. max_rate))))
    ()

let model_uniform_rate ~lambda ~rate ?dim () =
  let m = model ~lambda ~rate:(fun _ -> rate) ?dim () in
  { m with Model.name = Printf.sprintf "rebalance_ws(lambda=%g, r=%g)" lambda rate }
