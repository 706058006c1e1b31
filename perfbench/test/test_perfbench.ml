(* Tests for the benchmark's own code: input generation, exact
   quantiles, span self times and the correctness checks. *)

open Perfbench

let lines reqs = Array.to_list (Array.map (fun (r : Gen.request) -> r.Gen.line) reqs)

let streams seed =
  [
    ("serve-hit", Gen.hit_stream (Gen.rng ~seed "serve-hit") 500);
    ("serve-miss", Gen.miss_stream (Gen.rng ~seed "serve-miss") 500);
    ("serve-batch", Gen.batch_stream (Gen.rng ~seed "serve-batch") 100);
  ]

let test_deterministic () =
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check (list string)) (name ^ " repeats per seed") (lines a) (lines b))
    (streams 1) (streams 1);
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check bool) (name ^ " differs across seeds") false (lines a = lines b))
    (streams 1) (streams 2);
  Alcotest.(check int) "sim seed repeats" (Sim_bench.sim_seed 5) (Sim_bench.sim_seed 5);
  Alcotest.(check bool) "sim seed differs" false (Sim_bench.sim_seed 5 = Sim_bench.sim_seed 6)

(* Rates of each family, ascending, from a list of queries. *)
let by_family (qs : Gen.query list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (q : Gen.query) ->
      let k = Gen.family_key q.Gen.fam in
      Hashtbl.replace tbl k (Gen.lambda q :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    qs;
  Hashtbl.fold (fun k ls acc -> (k, List.sort Float.compare ls) :: acc) tbl []

let gap = Serve.Server.default_config.Serve.Server.interp_gap

let test_miss_keys () =
  List.iter
    (fun seed ->
      let reqs = Gen.miss_stream (Gen.rng ~seed "serve-miss") 1800 in
      let qs = List.concat_map (fun (r : Gen.request) -> r.Gen.queries) (Array.to_list reqs) in
      let keys = List.map Check.key qs in
      Alcotest.(check int) "no key repeats" (List.length keys)
        (List.length (List.sort_uniq String.compare keys));
      List.iter
        (fun (fam, ls) ->
          let rec spaced = function
            | a :: (b :: _ as rest) ->
                if not (b -. a > gap) then
                  Alcotest.failf "%s: %g and %g are within interp_gap" fam a b;
                spaced rest
            | _ -> ()
          in
          spaced ls;
          if List.exists (fun l -> l > 0.98) ls then Alcotest.failf "%s: rate above 0.98" fam)
        (by_family qs))
    [ 1; 2; 3 ]

(* Every rate of a scan must find the family's other scans' rates no
   closer than a bracket wider than interp_gap. *)
let test_batch_scans () =
  let reqs = Gen.batch_stream (Gen.rng ~seed:4 "serve-batch") 288 in
  let scans = Array.to_list reqs in
  List.iter
    (fun (r : Gen.request) ->
      let fam = Gen.family_key (List.hd r.Gen.queries).Gen.fam in
      Alcotest.(check int) "8 rates per scan" 8 (List.length r.Gen.queries);
      let others =
        List.concat_map
          (fun (o : Gen.request) ->
            if o != r && Gen.family_key (List.hd o.Gen.queries).Gen.fam = fam then
              List.map Gen.lambda o.Gen.queries
            else [])
          scans
      in
      List.iter
        (fun q ->
          let l = Gen.lambda q in
          let below = List.filter (fun x -> x < l) others and above = List.filter (fun x -> x > l) others in
          if List.mem l others then Alcotest.failf "%s: rate %g repeats" fam l;
          match (below, above) with
          | _ :: _, _ :: _ ->
              let b = List.fold_left Float.max neg_infinity below
              and a = List.fold_left Float.min infinity above in
              if not (a -. b > gap) then Alcotest.failf "%s: %g bracketed by [%g, %g]" fam l b a
          | _ -> ())
        r.Gen.queries)
    scans

let test_quantiles () =
  let a = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  let s = Quantile.sorted_copy a in
  Alcotest.(check (float 0.0)) "p50" 500.0 (Quantile.nearest_rank s 0.5);
  Alcotest.(check (float 0.0)) "p99" 990.0 (Quantile.nearest_rank s 0.99);
  Alcotest.(check int) "10 beyond p99 of 1000" 10 (Quantile.beyond 1000 0.99);
  Alcotest.(check int) "9 beyond p99 of 999" 9 (Quantile.beyond 999 0.99);
  (* each workload's fixed percentile at the benchmark's run length *)
  List.iter
    (fun w ->
      let spec = Serve_bench.spec ~seed:1 ~seconds:20 w in
      let n = Array.length spec.Serve_bench.measured in
      if Quantile.beyond n spec.Serve_bench.tail_p < 10 then
        Alcotest.failf "%s: %d requests leave %d beyond p%g" w n
          (Quantile.beyond n spec.Serve_bench.tail_p) spec.Serve_bench.tail_p)
    [ "serve-hit"; "serve-miss"; "serve-batch" ];
  let windows = int_of_float (Sim_bench.horizon ~seconds:20 /. Sim_bench.window) in
  if Quantile.beyond windows Sim_bench.tail_p < 10 then Alcotest.fail "sim-large: too few windows"

let span id parent start_ns stop_ns =
  { Spans.id; name = "s" ^ string_of_int id; start_ns; stop_ns; parent; req = 0 }

let test_self_time () =
  (* 0 [0,100] has children 1 [10,40] and 2 [50,90]; 1 has child 3 [20,30] *)
  let spans = [| span 0 (-1) 0 100; span 1 0 10 40; span 2 0 50 90; span 3 1 20 30 |] in
  Alcotest.(check (array int)) "self times" [| 30; 20; 40; 10 |] (Spans.self_times spans);
  let t = Spans.create () in
  let r = Spans.with_span t ~req:7 "outer" (fun () -> Spans.with_span t ~req:7 ~label:string_of_int "inner" (fun () -> 42)) in
  let a = Spans.to_array t in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check string) "relabelled" "42" a.(1).Spans.name;
  Alcotest.(check int) "nested" 0 a.(1).Spans.parent;
  Alcotest.(check bool) "self ≤ duration" true ((Spans.self_times a).(0) <= Spans.duration a.(0))

let simple = { Gen.model = "simple"; params = [] }
let q = { Gen.fam = simple; lam = 60_000 }

let answer_line ?(ok = true) ?(lambda = "0.6") ?(source = "warm") ?(residual = "1e-12") mean_time =
  if ok then
    Printf.sprintf
      {|{"ok":true,"model":"simple","family":"simple()@96","lambda":%s,"source":"%s","residual":%s,"evals":10,"mean_tasks":1,"mean_time":%s}|}
      lambda source residual mean_time
  else {|{"ok":false,"error":"boom"}|}

let test_checks () =
  let reference = Check.reference_mean_time q in
  let good = answer_line (Printf.sprintf "%.17g" reference) in
  let t = Check.tally () in
  let answered = Check.record t (Gen.single q) good in
  ignore (Check.references t answered ~k:1);
  Alcotest.(check int) "good answer passes" 0 t.Check.failed;
  let rejects what line =
    let t = Check.tally () in
    let answered = Check.record t (Gen.single q) line in
    ignore (Check.references t answered ~k:1);
    if t.Check.failed = 0 then Alcotest.failf "%s accepted" what
  in
  rejects "error response" (answer_line ~ok:false "1");
  rejects "residual above 1e-7" (answer_line ~residual:"1e-3" (Printf.sprintf "%.17g" reference));
  rejects "wrong rate" (answer_line ~lambda:"0.61" (Printf.sprintf "%.17g" reference));
  rejects "mean_time off the reference" (answer_line (Printf.sprintf "%.17g" (reference *. 1.00001)));
  (* the tier, not the reported residual, sets the tolerance *)
  rejects "solve off the reference at a loose residual"
    (answer_line ~residual:"5e-8" (Printf.sprintf "%.17g" (reference *. 1.00001)));
  rejects "interpolation beyond its bound"
    (answer_line ~source:"interpolated" ~residual:"5e-8"
       (Printf.sprintf "%.17g" (reference *. (1.0 +. (2.0 *. Check.interp_rtol)))));
  let t = Check.tally () in
  let near = answer_line ~source:"interpolated" ~residual:"5e-8" (Printf.sprintf "%.17g" (reference *. 1.00001)) in
  let gaps = Check.references t (Check.record t (Gen.single q) near) ~k:1 in
  Alcotest.(check int) "interpolation within its bound passes" 0 t.Check.failed;
  Alcotest.(check int) "its gap is returned" 1 (List.length gaps);
  rejects "truncated line" (String.sub good 0 40);
  (* a repeat of a key must agree with its first answer *)
  let t = Check.tally () in
  ignore (Check.record t (Gen.single q) good);
  ignore (Check.record t (Gen.single q) (answer_line (Printf.sprintf "%.17g" (reference *. 1.01))));
  Alcotest.(check int) "inconsistent repeat" 1 t.Check.failed

let () =
  Alcotest.run "perfbench"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "miss keys" `Quick test_miss_keys;
          Alcotest.test_case "batch scans" `Quick test_batch_scans;
        ] );
      ("quantile", [ Alcotest.test_case "exact tail" `Quick test_quantiles ]);
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("check", [ Alcotest.test_case "corrupted answers" `Quick test_checks ]);
    ]
