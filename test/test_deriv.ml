(* The derivative path: the shared tail helpers every family derivative
   reads through, and the minor-heap budgets that keep that path free of
   boxed floats.

   Budgets are only meaningful when cross-module [@inline] is honoured:
   dune's dev profile compiles with -opaque, so there [Tail.get],
   [Tail.ext_col] and [Mat.get] are calls that box the float they
   return. As in test_sim's steady-state budget, a calibration loop over
   [Prob.Rng.float] tells the two builds apart at runtime. An inlined
   (release) build holds the strict budgets: at most 32 words per
   scalar [deriv] call, and a batch no dearer per eval than the scalar
   solves of its columns. An opaque build holds only regression bounds
   per state component (32 per deriv call, 48 per batch eval; it
   measured up to 20 and 33). CI runs this suite under
   [--profile release]. *)

open Meanfield

let bits = Int64.bits_of_float

let same_float msg a b =
  Alcotest.(check int64) msg (bits a) (bits b)

(* ---------- shared helpers ---------- *)

(* The recursive square-and-multiply the three d-choice families used to
   carry, kept as the oracle for the loop that replaced it. *)
let ipow_recursive x d =
  let rec go acc x d =
    if d = 0 then acc
    else if d land 1 = 1 then go (acc *. x) (x *. x) (d asr 1)
    else go acc (x *. x) (d asr 1)
  in
  go 1.0 x d

let qcheck_ipow_matches_recursive =
  QCheck.Test.make ~count:2000 ~name:"Tail.ipow bit-identical to recursion"
    QCheck.(pair (float_bound_inclusive 1.0) (int_bound 32))
    (fun (x, d) ->
      Int64.equal (bits (Tail.ipow x d)) (bits (ipow_recursive x d)))

let test_ipow_edges () =
  List.iter
    (fun (x, d) ->
      same_float
        (Printf.sprintf "ipow %g %d" x d)
        (ipow_recursive x d) (Tail.ipow x d))
    [ (0.0, 0); (0.0, 1); (1.0, 32); (0.5, 1); (0.999, 31); (1e-160, 2) ]

let test_tail_get () =
  let s = [| 1.0; 0.7; 0.45; 0.3; 0.2 |] in
  let ratio = Tail.boundary_ratio s in
  Alcotest.(check bool) "boundary ratio is positive" true (ratio > 0.0);
  for i = 0 to Array.length s - 1 do
    same_float (Printf.sprintf "inside the truncation, i = %d" i) s.(i)
      (Tail.get s ~ratio i)
  done;
  for i = Array.length s to Array.length s + 6 do
    same_float (Printf.sprintf "past the truncation, i = %d" i)
      (Tail.ext s ~ratio i) (Tail.get s ~ratio i)
  done;
  same_float "no closure without a ratio" 0.0
    (Tail.get s ~ratio:0.0 (Array.length s))

(* The segment-ratio form the hyperexp and heterogeneous families used
   to carry, the oracle for [Tail.seg_ratio]'s bare clamp. *)
let seg_ratio_min y off depth =
  let a = y.(off + depth) and b = y.(off + depth - 1) in
  if b <= 1e-250 || a <= 0.0 then 0.0 else Float.min 0.999999 (a /. b)

let test_tail_seg_get () =
  let depth = 3 in
  let y = [| 9.0; 1.0; 0.5; 0.2; 0.1; 0.6; 0.4; 0.3 |] in
  List.iter
    (fun off ->
      for i = 0 to depth do
        same_float
          (Printf.sprintf "off %d, level %d" off i)
          y.(off + i)
          (Tail.seg_get y ~off ~depth i)
      done;
      same_float
        (Printf.sprintf "off %d, one past the truncation" off)
        (y.(off + depth) *. seg_ratio_min y off depth)
        (Tail.seg_get y ~off ~depth (depth + 1)))
    [ 1; 4 ];
  List.iter
    (fun (a, b) ->
      let y = [| b; a |] in
      same_float
        (Printf.sprintf "seg_ratio %h / %h" a b)
        (seg_ratio_min y 0 1)
        (Tail.seg_ratio y ~off:0 ~depth:1))
    [
      (0.5, 1.0); (1.0, 1.0); (2.0, 1.0); (0.999999, 1.0); (1e-300, 1e-200);
      (0.0, 1.0); (-0.0, 1.0); (-1.0, 1.0); (1.0, 0.0); (infinity, 1.0);
      (1.0, infinity); (nan, 1.0); (1.0, nan); (infinity, infinity);
    ]

(* ---------- allocation budgets ---------- *)

let inlined =
  lazy
    (let sink = Array.make 1 0.0 in
     let g = Prob.Rng.create ~seed:1 in
     let iters = 100_000 in
     let w0 = Gc.minor_words () in
     for _ = 1 to iters do
       sink.(0) <- sink.(0) +. Prob.Rng.float g
     done;
     (Gc.minor_words () -. w0) /. float_of_int iters < 0.5)

let native () =
  match Sys.backend_type with
  | Sys.Native -> true
  | Sys.Bytecode | Sys.Other _ -> false

let family name =
  match Serve.Families.resolve ~name [] with
  | Ok f -> f
  | Error e -> failwith e

(* Minor words per scalar [deriv] call at λ = 0.9 on the served family
   (depth pinned at 96), from its warm start. *)
let deriv_words name =
  let m = (family name).Serve.Families.build 0.9 in
  let y = m.Model.initial_warm () and dy = Numerics.Vec.create m.Model.dim in
  m.Model.deriv ~y ~dy;
  let iters = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    m.Model.deriv ~y ~dy
  done;
  ((Gc.minor_words () -. w0) /. float_of_int iters, m.Model.dim)

(* Families whose derivative allocates by construction, with a ceiling
   over what a release build measured: rebalance builds its prefix-sum
   arrays per call, O(dim) words (1,564 here). *)
let deriv_exceptions = [ ("rebalance", 1600.0) ]

let test_scalar_deriv_budget () =
  if native () then
    List.iter
      (fun name ->
        let words, dim = deriv_words name in
        let budget =
          if Lazy.force inlined then
            match List.assoc_opt name deriv_exceptions with
            | Some ceiling -> ceiling
            | None -> 32.0
          else 32.0 *. float_of_int dim
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.1f words per deriv call (dim %d, budget %.0f)"
             name words dim budget)
          true (words <= budget))
      Serve.Families.names

let words_of f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. w0, r)

let total_evals fps =
  Array.fold_left (fun acc fp -> acc + fp.Drive.evals) 0 fps

(* Minor words per derivative eval of one lockstep batch over [lambdas],
   against the K scalar solves of the same columns. Models are built
   outside the measured windows. *)
let batch_vs_scalar name lambdas =
  let fam = family name in
  let models = Array.map fam.Serve.Families.build lambdas in
  let batch = fam.Serve.Families.build_batch lambdas in
  let scalar_words, scalar_fps =
    words_of (fun () -> Array.map (fun m -> Drive.fixed_point m) models)
  in
  let batch_words, (batch_fps, stats) =
    words_of (fun () -> Drive.fixed_point_batch batch)
  in
  Array.iter
    (fun fp ->
      Alcotest.(check bool) (name ^ ": batch column converged") true
        fp.Drive.converged)
    batch_fps;
  ( batch_words /. float_of_int (total_evals batch_fps),
    scalar_words /. float_of_int (total_evals scalar_fps),
    stats.Drive.hand_batched,
    models.(0).Model.dim )

(* Hand-batched kernels (simple, erlang, steal-half) and bridged ones
   (threshold, supermarket); K = 1 across the λ range and one K = 8
   grid. *)
let batch_families =
  [ "simple"; "erlang"; "steal-half"; "threshold"; "supermarket" ]
let k1_lambdas = [ 0.5; 0.9; 0.98 ]
let k8_grid = Array.init 8 (fun i -> 0.6 +. (0.003 *. float_of_int i))

let test_batch_budget () =
  if native () then
    List.iter
      (fun name ->
        List.iter
          (fun lambdas ->
            let batch, scalar, hand, dim = batch_vs_scalar name lambdas in
            let k = Array.length lambdas in
            let budget =
              if Lazy.force inlined then scalar else 48.0 *. float_of_int dim
            in
            Alcotest.(check bool)
              (Printf.sprintf
                 "%s%s K=%d λ=%g..: %.1f words per eval in the batch, %.1f \
                  in the scalar solves (budget %.1f)"
                 name
                 (if hand then "" else " [bridge]")
                 k lambdas.(0) batch scalar budget)
              true (batch <= budget))
          (List.map (fun l -> [| l |]) k1_lambdas @ [ k8_grid ]))
      batch_families

let () =
  Alcotest.run "deriv"
    [
      ( "helpers",
        [
          QCheck_alcotest.to_alcotest qcheck_ipow_matches_recursive;
          Alcotest.test_case "ipow edge cases" `Quick test_ipow_edges;
          Alcotest.test_case "Tail.get reads then extends" `Quick
            test_tail_get;
          Alcotest.test_case "Tail.seg_get reads a packed segment" `Quick
            test_tail_seg_get;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "scalar deriv per family" `Quick
            test_scalar_deriv_budget;
          Alcotest.test_case "batch vs scalar per eval" `Quick
            test_batch_budget;
        ] );
    ]
