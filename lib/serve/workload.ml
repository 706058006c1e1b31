(* Deterministic heavy query stream, shared by the daemon replay client
   and the in-process replay tests so both see the same traffic shape:
   a zipf-ish distribution over a λ grid (a few hot rates dominate, as
   a dashboard or an auto-scaler re-asking about current load would),
   per-model hot-spot permutations so different families heat different
   λs, and a configurable share of off-grid λs landing between grid
   points — the queries only sub-grid interpolation can short-circuit. *)

type query = {
  model : string;
  params : (string * float) list;
  lambda : float;
}

let default_models =
  [
    "mm1";
    "simple";
    "erlang";
    "threshold";
    "preemptive";
    "multisteal";
    "steal-half";
    "supermarket";
  ]

(* Small multiplicative LCG (Lehmer, modulus 2^31-1) so the stream is
   reproducible from the seed alone, independent of OCaml's stdlib
   Random implementation details across versions. *)
let lcg_next s = Int64.to_int (Int64.rem (Int64.mul (Int64.of_int s) 48271L) 2147483647L)

let uniform s =
  let s = lcg_next s in
  (s, float_of_int s /. 2147483647.0)

let stream ?(seed = 42) ?(models = default_models) ?(grid = 24)
    ?(lo = 0.5) ?(hi = 0.98) ?(offgrid_share = 0.15) ?(burst_share = 0.0)
    ?(burst_len = 8) n =
  if n < 0 then invalid_arg "Serve.Workload.stream: n must be >= 0";
  if grid < 2 then invalid_arg "Serve.Workload.stream: grid must be >= 2";
  if models = [] then invalid_arg "Serve.Workload.stream: no models";
  if not (lo < hi) then invalid_arg "Serve.Workload.stream: need lo < hi";
  if not (burst_share >= 0.0 && burst_share <= 1.0) then
    invalid_arg "Serve.Workload.stream: burst_share must be in [0, 1]";
  if burst_len < 1 then
    invalid_arg "Serve.Workload.stream: burst_len must be >= 1";
  let models = Array.of_list models in
  let nm = Array.length models in
  let lambdas =
    Array.init grid (fun k ->
        Key.canon_float
          (lo +. ((hi -. lo) *. float_of_int k /. float_of_int (grid - 1))))
  in
  (* Zipf CDF over ranks 1..grid. *)
  let weights = Array.init grid (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make grid 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun k w ->
      acc := !acc +. (w /. total);
      cdf.(k) <- !acc)
    weights;
  let rank_of u =
    let r = ref 0 in
    while !r < grid - 1 && cdf.(!r) < u do
      incr r
    done;
    !r
  in
  (* Per-model permutation of grid indices: model m's rank-r λ is grid
     slot (a·r + b) mod grid with a coprime to grid — cheap, seedless,
     and different models concentrate on different rates. *)
  let coprime_step m =
    let rec find a = if a >= 2 * grid then 1 else if gcd a grid = 1 then a else find (a + 1)
    and gcd a b = if b = 0 then a else gcd b (a mod b) in
    find (m + 2)
  in
  let steps = Array.init nm coprime_step in
  (* Lehmer state must live in [1, 2^31-2]: 0 (any multiple of the
     2^31-1 modulus) is a fixed point of the generator and would yield a
     constant all-zero stream. Fold every seed into that range, keeping
     seeds already inside it unchanged so recorded streams stay put. *)
  let state =
    let m = 2147483646 in
    ref ((((seed - 1) mod m) + m) mod m + 1)
  in
  let draw () =
    let s, u = uniform !state in
    state := s;
    u
  in
  let base_query () =
    let m = int_of_float (draw () *. float_of_int nm) in
    let m = if m >= nm then nm - 1 else m in
    let r = rank_of (draw ()) in
    let slot = ((steps.(m) * r) + m) mod grid in
    let lambda =
      if draw () < offgrid_share && slot < grid - 1 then
        (* land strictly between two adjacent grid points *)
        Key.canon_float
          (lambdas.(slot)
          +. ((0.2 +. (0.6 *. draw ())) *. (lambdas.(slot + 1) -. lambdas.(slot))))
      else lambdas.(slot)
    in
    { model = models.(m); params = []; lambda }
  in
  if burst_share <= 0.0 then
    (* the historical stream, draw for draw — recorded streams and the
       CI smoke gates stay byte-identical when bursts are off *)
    List.init n (fun _ -> base_query ())
  else begin
    (* Burst mode: after a base query, with probability [burst_share]
       emit a λ-scan — one model asked at [burst_len] consecutive grid
       rates, the shape an auto-scaler sweeping a what-if curve (or a
       dashboard fanning a row of gauges) produces. These are the
       misses a batch request's lockstep solve groups; all burst draws
       are guarded behind [burst_share > 0] so they never perturb the
       default stream. *)
    let out = ref [] in
    let count = ref 0 in
    let push q =
      out := q :: !out;
      incr count
    in
    while !count < n do
      push (base_query ());
      if !count < n && draw () < burst_share then begin
        let m = int_of_float (draw () *. float_of_int nm) in
        let m = if m >= nm then nm - 1 else m in
        let base = int_of_float (draw () *. float_of_int grid) in
        let base = if base >= grid then grid - 1 else base in
        for j = 0 to burst_len - 1 do
          if !count < n then
            let slot = base + j in
            let slot = if slot >= grid then grid - 1 else slot in
            push { model = models.(m); params = []; lambda = lambdas.(slot) }
        done
      end
    done;
    List.rev !out
  end

let request_json ?tail q =
  let base =
    [ ("model", Wire.Str q.model); ("lambda", Wire.Num q.lambda) ]
  in
  let params =
    match q.params with
    | [] -> []
    | ps ->
        [ ("params", Wire.Obj (List.map (fun (k, v) -> (k, Wire.Num v)) ps)) ]
  in
  let tail =
    match tail with
    | None -> []
    | Some k -> [ ("tail", Wire.Num (float_of_int k)) ]
  in
  Wire.Obj (base @ params @ tail)
