(* Inlined so the result stays in a float register: [exponential] fires
   on every arrival and completion of the simulator. [log] is an
   unboxed-noalloc external, so the inlined body allocates nothing. *)
let[@inline] exponential g ~rate =
  (* lint: allow zero-alloc: cold rate guard, raises before the hot path *)
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  -.log (Rng.float_pos g) /. rate

(* Single-field float record: flat, so the loop's store is unboxed. A
   polymorphic [ref] here would box the float on every iteration. *)
type acc = { mutable prod : float }

(* Inlined like [exponential]: the simulator draws Erlang service and
   transfer delays on its event path, and a float returned from a call
   that is not inlined is boxed. *)
let[@inline] erlang g ~k ~rate =
  (* lint: allow zero-alloc: cold stage-count guard, raises before the hot path *)
  if k <= 0 then invalid_arg "Dist.erlang: k must be positive";
  (* Product of uniforms needs a single log instead of k. *)
  (* lint: allow zero-alloc: one flat two-word float cell per erlang draw; a polymorphic ref would box every loop iteration instead *)
  let acc = { prod = 1.0 } in
  for _ = 1 to k do
    acc.prod <- acc.prod *. Rng.float_pos g
  done;
  -.log acc.prod /. rate

let rec poisson g ~mean =
  if mean < 0.0 then invalid_arg "Dist.poisson: mean must be non-negative";
  if Float.equal mean 0.0 then 0
  else if mean > 30.0 then
    (* Poisson(a+b) = Poisson(a) + Poisson(b): split recursively so the
       multiplication method's exp(-mean) never underflows. *)
    let half = mean /. 2.0 in
    poisson g ~mean:half + poisson g ~mean:(mean -. half)
  else begin
    let limit = exp (-.mean) in
    let rec go k prod =
      let prod = prod *. Rng.float g in
      if prod <= limit then k else go (k + 1) prod
    in
    go 0 1.0
  end

let geometric g ~mean =
  (* lint: allow zero-alloc: cold mean guard, raises before the hot path *)
  if mean < 1.0 then invalid_arg "Dist.geometric: mean must be at least 1";
  if Float.equal mean 1.0 then 1
  else begin
    (* P(K > j) = (1-q)^j with q = 1/mean *)
    let log_fail = log (1.0 -. (1.0 /. mean)) in
    1 + int_of_float (log (Rng.float_pos g) /. log_fail)
  end

let pareto g ~alpha ~xmin =
  if alpha <= 0.0 || xmin <= 0.0 then
    invalid_arg "Dist.pareto: alpha and xmin must be positive";
  xmin /. (Rng.float_pos g ** (1.0 /. alpha))

type service =
  | Exponential
  | Deterministic
  | Erlang_stages of int
  | Hyperexp of { p : float; mean1 : float; mean2 : float }

let[@inline] hyperexp_mean p mean1 mean2 = (p *. mean1) +. ((1.0 -. p) *. mean2)

let[@inline] service_mean_one g = function
  | Exponential -> exponential g ~rate:1.0
  | Deterministic -> 1.0
  | Erlang_stages c -> erlang g ~k:c ~rate:(float_of_int c)
  | Hyperexp { p; mean1; mean2 } ->
      let scale = hyperexp_mean p mean1 mean2 in
      (* lint: allow zero-alloc: cold parameter guard, raises before the hot path *)
      if scale <= 0.0 then invalid_arg "Dist.service_mean_one: bad hyperexp";
      let m = if Rng.float g < p then mean1 else mean2 in
      exponential g ~rate:(scale /. m)

let service_scv = function
  | Exponential -> 1.0
  | Deterministic -> 0.0
  | Erlang_stages c -> 1.0 /. float_of_int c
  | Hyperexp { p; mean1; mean2 } ->
      let m = hyperexp_mean p mean1 mean2 in
      let second =
        (2.0 *. p *. mean1 *. mean1)
        +. (2.0 *. (1.0 -. p) *. mean2 *. mean2)
      in
      (second /. (m *. m)) -. 1.0

let pp_service ppf = function
  | Exponential -> Format.fprintf ppf "exponential"
  | Deterministic -> Format.fprintf ppf "deterministic"
  | Erlang_stages c -> Format.fprintf ppf "erlang(%d)" c
  | Hyperexp { p; mean1; mean2 } ->
      Format.fprintf ppf "hyperexp(p=%g, m1=%g, m2=%g)" p mean1 mean2
