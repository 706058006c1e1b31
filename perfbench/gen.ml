(* Seeded inputs for the four workloads.

   Everything the benchmark sends is derived here from --seed with a
   SplitMix64 stream of the benchmark's own and printed by the
   benchmark's own JSON code, so an edit to Serve.Workload, Serve.Wire or
   Prob.Rng cannot change what is measured. Rates travel as integers in
   units of 1e-5 and are printed as exact decimals, so the daemon's
   canonical key for a rate is the float the benchmark parses from the
   same text. *)

module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Top 53 bits as a float in [0, 1). *)
  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

  (* Uniform in [0, bound); the float route's bias is below 2^-40 for the
     small bounds used here. *)
  let int t bound = int_of_float (float t *. float_of_int bound)

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
end

(* A stream per (seed, workload): FNV-1a of the name keeps the workloads'
   streams apart without depending on Hashtbl.hash. *)
let rng ~seed name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    name;
  Rng.create (Int64.to_int (Int64.logxor !h (Int64.of_int seed)))

type family = { model : string; params : (string * int) list }
(* Parameter values are integers in units of 1e-3 for float parameters
   ([float_params]) and plain integers otherwise. *)

type query = { fam : family; lam : int (* λ in units of 1e-5 *) }

type request = {
  line : string;  (** The request line, without newline. *)
  queries : query list;  (** One for a single query, the scan for a batch. *)
  batch : bool;  (** Sent as a JSON array. *)
}

let float_params = [ "retry_rate"; "rate"; "transfer_rate"; "mean_batch" ]
let lam_string l = Printf.sprintf "%d.%05d" (l / 100_000) (l mod 100_000)
let lambda q = float_of_string (lam_string q.lam)

let param_value (k, v) =
  if List.mem k float_params then Printf.sprintf "%d.%03d" (v / 1000) (v mod 1000)
  else string_of_int v

let param_string ((k, _) as p) = Printf.sprintf "\"%s\":%s" k (param_value p)

(* Parameters as Families.resolve takes them. *)
let resolve_params fam =
  List.map (fun ((k, _) as p) -> (k, float_of_string (param_value p))) fam.params

let family_key fam =
  fam.model ^ "(" ^ String.concat "," (List.map param_string fam.params) ^ ")"

let query_json q =
  let params =
    match q.fam.params with
    | [] -> ""
    | ps -> ",\"params\":{" ^ String.concat "," (List.map param_string ps) ^ "}"
  in
  Printf.sprintf "{\"model\":\"%s\",\"lambda\":%s%s}" q.fam.model
    (lam_string q.lam) params

let single q = { line = query_json q; queries = [ q ]; batch = false }

let scan qs =
  {
    line = "[" ^ String.concat "," (List.map query_json qs) ^ "]";
    queries = qs;
    batch = true;
  }

(* ---- serve-hit ----

   The eight families of the repository's default traffic mix, cached on
   a 24-point grid 0.52, 0.54, …, 0.98 by a warm-up that runs in one
   fixed order (family by family, ascending λ: every query after a
   family's first is a warm start and none can be interpolated), then a
   measured stream in which 85 % of queries are exact grid hits and
   15 % land strictly inside a grid gap (0.02 < interp_gap), the queries
   certified interpolation exists for. *)

let hit_families =
  List.map
    (fun model -> { model; params = [] })
    [
      "mm1"; "simple"; "erlang"; "threshold"; "preemptive"; "multisteal";
      "steal-half"; "supermarket";
    ]

let hit_grid = Array.init 24 (fun k -> 52_000 + (2_000 * k))
let offgrid_share = 0.15

let hit_warmup () =
  List.concat_map
    (fun fam -> Array.to_list (Array.map (fun lam -> single { fam; lam }) hit_grid))
    hit_families

(* Stratified: exactly [offgrid_share] of the queries are off-grid and
   they cycle through every (family, gap) pair, the rest cycle through
   every (family, grid point); the seed draws the offsets inside the gaps
   and the order. A run's mix of solves therefore repeats across seeds. *)
let hit_stream rng n =
  let fams = Array.of_list hit_families in
  let nf = Array.length fams and ng = Array.length hit_grid in
  let n_off = int_of_float (Float.round (offgrid_share *. float_of_int n)) in
  let qs =
    Array.init n (fun i ->
        if i < n_off then
          let k = i mod (nf * (ng - 1)) in
          (* strictly inside gap k / nf, at least 0.002 from either end *)
          { fam = fams.(k mod nf); lam = hit_grid.(k / nf) + 200 + Rng.int rng 1601 }
        else
          let k = (i - n_off) mod (nf * ng) in
          { fam = fams.(k mod nf); lam = hit_grid.(k / nf) })
  in
  Rng.shuffle rng qs;
  Array.map single qs

(* ---- parameter spaces for miss and batch families ---- *)

let rec range a b = if a > b then [] else a :: range (a + 1) b

(* The structural parameter tuples this benchmark draws families from,
   per model, in a fixed order; float parameters, in units of 1e-3, come
   from a stream of their own that does not depend on the seed, so a run's
   mix of models and parameters is the same for every seed and the spread
   between seeds measures the system, not the draw. The ranges stay near
   the registry defaults, where every model converges for λ ≤ 0.98 at a
   cost within a few times the default's: Erlang with 3 or more stages
   costs 5-10x more per solve and would dominate a run's time. *)
let param_space model =
  let rng = rng ~seed:0 model in
  match model with
  | "simple" -> [ [] ]
  | "erlang" -> List.map (fun s -> [ ("stages", s) ]) (range 1 2)
  | "threshold" -> List.map (fun t -> [ ("threshold", t) ]) (range 2 12)
  | "steal-half" -> List.map (fun t -> [ ("threshold", t) ]) (range 2 24)
  | "supermarket" -> List.map (fun c -> [ ("choices", c) ]) (range 2 6)
  | "hyperexp" -> List.map (fun t -> [ ("threshold", t) ]) (range 2 5)
  | "preemptive" ->
      List.concat_map
        (fun b -> List.map (fun o -> [ ("begin_at", b); ("offset", o) ]) (range (b + 2) (b + 4)))
        (range 0 2)
  | "multisteal" ->
      List.concat_map
        (fun s -> List.map (fun t -> [ ("steal_count", s); ("threshold", t) ]) (range (2 * s) (2 * s + 3)))
        (range 1 3)
  | "multi-choice" ->
      List.concat_map
        (fun c -> List.map (fun t -> [ ("choices", c); ("threshold", t) ]) (range 2 5))
        (range 1 3)
  | "combined" ->
      List.concat_map
        (fun s ->
          List.concat_map
            (fun c ->
              List.map
                (fun t -> [ ("choices", c); ("steal_count", s); ("threshold", t) ])
                (range (s + 2) (s + 4)))
            (range 1 3))
        (range 1 2)
  | "repeated" ->
      (* 16 retry rates drawn from [0.25, 4] per threshold *)
      List.concat_map
        (fun t ->
          List.init 16 (fun _ -> [ ("retry_rate", 250 + Rng.int rng 3751); ("threshold", t) ]))
        (range 2 3)
  | "rebalance" -> List.init 32 (fun _ -> [ ("rate", 100 + Rng.int rng 1901) ])
  | "batch" ->
      List.concat_map
        (fun t ->
          List.init 16 (fun _ -> [ ("mean_batch", 1000 + Rng.int rng 2001); ("threshold", t) ]))
        (range 2 3)
  | "transfer" ->
      List.init 32 (fun _ ->
          [ ("stages", 1); ("threshold", 2 + Rng.int rng 3); ("transfer_rate", 500 + Rng.int rng 1501) ])
  | _ -> invalid_arg ("Gen.param_space: " ^ model)

(* The distinct families of [model]'s parameter space, in its order. *)
let families model =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun params ->
      let fam = { model; params } in
      let key = family_key fam in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some fam
      end)
    (param_space model)

(* Round r holds the r-th item of every sequence that has one, in a
   seeded order; the rounds follow each other. Each family keeps its own
   order, and neighbouring requests come from the same rung or slot, so
   they cost about the same: with 2 requests in flight on a daemon that
   serves one at a time, a request's latency includes part of its
   neighbour's, and a fully random interleaving moved the median latency
   15 % between seeds. *)
let rounds rng (seqs : 'a list list) =
  let rec go acc seqs =
    match List.filter (( <> ) []) seqs with
    | [] -> List.concat (List.rev acc)
    | seqs ->
        let round = Array.of_list (List.map List.hd seqs) in
        Rng.shuffle rng round;
        go (Array.to_list round :: acc) (List.map List.tl seqs)
  in
  go [] seqs

(* [k] families taken round-robin over [models], so every model keeps its
   share as [k] grows. *)
let round_robin models k =
  let pools = Array.of_list (List.map families models) in
  let out = ref [] and taken = ref 0 in
  while !taken < k do
    if Array.for_all (( = ) []) pools then invalid_arg "Gen.round_robin: not enough distinct families";
    Array.iteri
      (fun i pool ->
        match pool with
        | fam :: rest when !taken < k ->
            out := fam :: !out;
            incr taken;
            pools.(i) <- rest
        | _ -> ())
      pools
  done;
  List.rev !out

(* ---- serve-miss ----

   Every query is a single-λ miss. A family's rates sit on a ladder of 22
   rungs 0.04 apart ending at 0.98, each moved down by up to 0.002 by the
   seed, so two rates of one family are always at least 0.038 apart: no
   key repeats and no cached bracket is ever narrower than interp_gap
   (0.03), so the interpolation tier never fires. The families climb
   their ladders together, one rung per round (see [rounds]), as a
   dashboard re-asking every curve at a rising load would: after a
   family's first (cold) query, its nearest cached λ is the rung below.
   The seed's moves stay small because a solve's cost climbs steeply
   towards λ = 1: with moves of up to 0.008, runs of different seeds
   differed by 18 % in throughput. The closed-form mm1 and hetero, whose
   solves cost ten times the others', stay out so no single model
   dominates the run's time. *)

let miss_models =
  [
    "simple"; "erlang"; "threshold"; "preemptive"; "repeated"; "multisteal";
    "multi-choice"; "combined"; "rebalance"; "steal-half"; "transfer"; "batch";
    "supermarket"; "hyperexp";
  ]

let miss_slots = 22
let miss_rung j = 98_000 - (4_000 * (miss_slots - 1 - j))

(* At least [n] queries: whole ladders, so every family climbs to 0.98. *)
let miss_stream rng n =
  let fams = round_robin miss_models ((n + miss_slots - 1) / miss_slots) in
  let ladder fam = List.init miss_slots (fun j -> { fam; lam = miss_rung j - Rng.int rng 201 }) in
  Array.of_list (List.map single (rounds rng (List.map ladder fams)))

(* ---- serve-batch ----

   Each request is one family's scan of 8 rates 0.003 apart (0.021 wide)
   inside a slot 0.031 wide; slot j starts at 0.10 + 0.031 j. A scan's
   nearest cached neighbours lie in other slots, so every cached bracket
   around its rates is wider than a slot and than interp_gap (0.03):
   every column is a true miss. Every family scans the same 11 slots,
   every other one over [0.10, 0.75], in ascending order, one slot per
   round across the families (see [rounds]); the seed moves each scan up
   to 0.002 inside its slot and orders each round. A family's first scan
   finds nothing cached and takes the anchor path, its later ones
   warm-start from the scan below. Families with a hand-batched
   deriv_cols (simple, erlang, steal-half) and families that bridge
   through the scalar derivative alternate.

   Scans stop at 0.75: above 0.8 a scan costs 4-15 times the median one,
   and with 2 requests in flight on a daemon that serves one at a time,
   those few scans set the latency of whatever runs beside them — with
   them, the median latency moved 20 % between seeds. serve-miss covers
   λ up to 0.98. *)

let batch_hand_models = [ "simple"; "erlang"; "steal-half" ]

let batch_bridge_models =
  [ "threshold"; "multisteal"; "preemptive"; "supermarket"; "repeated"; "multi-choice" ]

let batch_width = 8
let batch_step = 300
let batch_slot_width = 3_100
let batch_slots_scanned = List.init 11 (fun i -> 2 * i)
let scans_per_family = List.length batch_slots_scanned

(* At least [n] scans: every family scans all its slots. *)
let batch_stream rng n =
  let k = (n + scans_per_family - 1) / scans_per_family in
  let hand = Array.of_list (round_robin batch_hand_models ((k + 1) / 2)) in
  let bridge = Array.of_list (round_robin batch_bridge_models (k / 2)) in
  let fams = List.init k (fun i -> if i mod 2 = 0 then hand.(i / 2) else bridge.(i / 2)) in
  let scans_of fam =
    List.map
         (fun slot ->
           let lo = 10_000 + (batch_slot_width * slot) + Rng.int rng 201 in
           List.init batch_width (fun j -> { fam; lam = lo + (batch_step * j) }))
         batch_slots_scanned
  in
  Array.of_list (List.map scan (rounds rng (List.map scans_of fams)))
