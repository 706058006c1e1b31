(* Tests for the prediction service: canonical keys, the wire format,
   family resolution, the sharded cache, and the server's three-tier
   answer path. The strongest checks are external: every served state is
   re-certified against the model's own derivative (Drive.residual), so
   a cache or interpolation bug cannot hide behind the service's own
   bookkeeping. *)

open Serve

let check_close eps = Alcotest.(check (float eps))

(* ---------- Key ---------- *)

let test_key_canon_coalesces () =
  (* formatting noise and last-bit jitter collapse to one key *)
  Alcotest.(check (float 0.0))
    "0.1 + 0.2 collapses onto 0.3" (Key.canon_float 0.3)
    (Key.canon_float (0.1 +. 0.2));
  Alcotest.(check string)
    "same canonical string" (Key.canon_string 0.3)
    (Key.canon_string (0.1 +. 0.2));
  Alcotest.(check (float 0.0))
    "0.90 is 0.9" (Key.canon_float 0.9) (Key.canon_float 0.90);
  (* idempotence: canonicalising a canonical float is the identity *)
  List.iter
    (fun f ->
      let c = Key.canon_float f in
      Alcotest.(check (float 0.0)) "idempotent" c (Key.canon_float c))
    [ 0.9; 1.0 /. 3.0; 1e-7; 123456.75 ]

let test_key_canon_strings () =
  Alcotest.(check string) "integers bare" "4" (Key.canon_string 4.0);
  Alcotest.(check string) "negative integer" "-2" (Key.canon_string (-2.0));
  Alcotest.(check string) "fraction" "0.9" (Key.canon_string 0.9);
  Alcotest.(check string) "-0.0 collapses onto 0.0" "0"
    (Key.canon_string (-0.0));
  Alcotest.(check (float 0.0))
    "-0.0 and 0.0 share a canonical float" (Key.canon_float 0.0)
    (Key.canon_float (-0.0));
  List.iter
    (fun f ->
      Alcotest.check_raises "non-finite rejected"
        (Invalid_argument "Serve.Key: non-finite parameter") (fun () ->
          ignore (Key.canon_float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_key_family_format () =
  Alcotest.(check string)
    "sorted params, canonical values, depth suffix"
    "combined(choices=2,steal_count=2,threshold=4)@96"
    (Key.family ~name:"Combined"
       ~params:
         [ ("threshold", 4.0); ("choices", 2.0); ("steal_count", 2.00) ]
       ~depth:96);
  Alcotest.(check string)
    "no params" "mm1()@64"
    (Key.family ~name:"mm1" ~params:[] ~depth:64)

(* ---------- Wire ---------- *)

let test_wire_round_trip () =
  let v =
    Wire.Obj
      [
        ("model", Wire.Str "threshold");
        ("lambda", Wire.Num 0.9);
        ("params", Wire.Obj [ ("threshold", Wire.Num 4.0) ]);
        ("tags", Wire.Arr [ Wire.Bool true; Wire.Null; Wire.Num 3.0 ]);
        ("note", Wire.Str "quote \" and \\ and\nnewline");
      ]
  in
  let text = Wire.to_string v in
  Alcotest.(check bool) "round trip" true (Wire.of_string text = v);
  (* canonical float rendering matches Key.canon_string *)
  Alcotest.(check string) "integer bare" "{\"x\":3}"
    (Wire.to_string (Wire.Obj [ ("x", Wire.Num 3.0) ]))

let test_wire_rejects_garbage () =
  List.iter
    (fun text ->
      match Wire.of_string text with
      | exception Wire.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" text)
    [
      "";
      "{";
      "[1,";
      "{\"a\" 1}";
      "nul";
      "1 2";
      "\"unterminated";
      (* hostile nesting must be a Parse_error, not a stack overflow *)
      String.concat "" (List.init 100_000 (fun _ -> "["));
    ]

(* ---------- Families ---------- *)

let test_families_resolve () =
  (match Families.resolve ~name:"threshold" [] with
  | Ok fam ->
      Alcotest.(check string) "defaults filled"
        "threshold(threshold=4)@96" fam.Families.family;
      Alcotest.(check int) "pinned depth" Families.default_depth
        fam.Families.depth
  | Error e -> Alcotest.failf "threshold should resolve: %s" e);
  (match Families.resolve ~depth:48 ~name:"Multi-Choice" [ ("choices", 3.0) ]
   with
  | Ok fam ->
      Alcotest.(check string) "case-insensitive, override kept"
        "multi-choice(choices=3,threshold=2)@48" fam.Families.family
  | Error e -> Alcotest.failf "multi-choice should resolve: %s" e);
  (match Families.resolve ~name:"no-such-model" [] with
  | Ok _ -> Alcotest.fail "unknown model resolved"
  | Error _ -> ());
  (match Families.resolve ~name:"threshold" [ ("bogus", 1.0) ] with
  | Ok _ -> Alcotest.fail "unknown parameter accepted"
  | Error _ -> ());
  match Families.resolve ~name:"threshold" [ ("threshold", 2.5) ] with
  | Ok _ -> Alcotest.fail "non-integral integer parameter accepted"
  | Error _ -> ()

(* The integer parameters that scale a solve's cost are capped, so one
   wire line cannot pin a daemon domain: before the caps, a cold erlang
   answer at 200 stages took 11.5 s and multi-choice at 1000 choices
   51.7 s. *)
let test_families_cap_solve_cost () =
  List.iter
    (fun (name, k, cap) ->
      (match Families.resolve ~name [ (k, float_of_int cap) ] with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s at %s = %d should resolve: %s" name k cap e);
      match Families.resolve ~name [ (k, float_of_int (cap + 1)) ] with
      | Ok _ -> Alcotest.failf "%s at %s = %d resolved" name k (cap + 1)
      | Error e ->
          Alcotest.(check string)
            (Printf.sprintf "%s rejects %s = %d" name k (cap + 1))
            (Printf.sprintf "parameter %S of model %S must be at most %d" k
               name cap)
            e)
    [
      ("erlang", "stages", 20);
      ("transfer", "stages", 20);
      ("multi-choice", "choices", 32);
      ("combined", "choices", 32);
      ("supermarket", "choices", 32);
    ];
  let resp =
    Protocol.handle_line (Server.create ())
      "{\"model\":\"erlang\",\"lambda\":0.5,\"params\":{\"stages\":21}}"
  in
  Alcotest.(check string) "the daemon refuses stages 21"
    "{\"ok\":false,\"error\":\"parameter \\\"stages\\\" of model \
     \\\"erlang\\\" must be at most 20\"}"
    resp

let test_families_build_shares_dim () =
  (* the pinned depth exists so every lambda of a family shares one
     state dimension — what warm starts and interpolation both need
     (multi-class models have dim > depth, but still lambda-invariant) *)
  List.iter
    (fun name ->
      match Families.resolve ~name [] with
      | Ok fam ->
          let a = fam.Families.build 0.5 in
          let b = fam.Families.build 0.97 in
          Alcotest.(check int)
            (name ^ " dim is lambda-invariant")
            a.Meanfield.Model.dim b.Meanfield.Model.dim;
          Alcotest.(check bool)
            (name ^ " dim covers the pinned depth")
            true
            (a.Meanfield.Model.dim >= fam.Families.depth)
      | Error e -> Alcotest.failf "%s should resolve: %s" name e)
    Workload.default_models

(* ---------- Cache ---------- *)

let entry lambda =
  {
    Cache.lambda;
    state = Numerics.Vec.make 4 lambda;
    residual = 1e-12;
    evals = 10;
    mean_tasks = 1.0;
    mean_time = 1.0;
  }

let test_cache_hit_miss_chain () =
  let c = Cache.create ~shards:4 () in
  (match Cache.find c ~family:"f@4" 0.5 with
  | Cache.Miss [] -> ()
  | _ -> Alcotest.fail "empty cache should miss with an empty chain");
  Cache.insert c ~family:"f@4" (entry 0.7);
  Cache.insert c ~family:"f@4" (entry 0.5);
  Cache.insert c ~family:"f@4" (entry 0.9);
  (match Cache.find c ~family:"f@4" 0.7 with
  | Cache.Hit e -> check_close 0.0 "exact hit" 0.7 e.Cache.lambda
  | Cache.Miss _ -> Alcotest.fail "expected a hit at 0.7");
  (match Cache.find c ~family:"f@4" 0.8 with
  | Cache.Miss chain ->
      Alcotest.(check (list (float 0.0)))
        "miss returns the ascending chain" [ 0.5; 0.7; 0.9 ]
        (List.map (fun e -> e.Cache.lambda) chain)
  | Cache.Hit _ -> Alcotest.fail "0.8 was never inserted");
  (* replacement at equal canonical lambda keeps one entry *)
  Cache.insert c ~family:"f@4" { (entry 0.7) with Cache.evals = 99 };
  (match Cache.find c ~family:"f@4" 0.7 with
  | Cache.Hit e -> Alcotest.(check int) "replaced" 99 e.Cache.evals
  | Cache.Miss _ -> Alcotest.fail "expected a hit after replacement");
  let s = Cache.stats c in
  Alcotest.(check int) "entries" 3 s.Cache.entries;
  Alcotest.(check int) "families" 1 s.Cache.families;
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "insertions" 4 s.Cache.insertions

let test_cache_rejects_bad_shards () =
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Serve.Cache.create: shards must be >= 1") (fun () ->
      ignore (Cache.create ~shards:0 ()))

(* ---------- Server: the three-tier answer path ---------- *)

let resolve_exn ?depth name params =
  match Families.resolve ?depth ~name params with
  | Ok fam -> fam
  | Error e -> Alcotest.failf "%s should resolve: %s" name e

let test_server_cold_then_hit () =
  let t = Server.create () in
  let fam = resolve_exn "threshold" [] in
  let a = Server.answer t fam 0.8 in
  Alcotest.(check string) "first answer is a miss" "cold"
    (Server.source_name a.Server.source);
  Alcotest.(check bool) "miss costs evals" true (a.Server.evals > 0);
  let b = Server.answer t fam 0.80 in
  Alcotest.(check string) "same canonical lambda hits" "hit"
    (Server.source_name b.Server.source);
  Alcotest.(check int) "hit costs nothing" 0 b.Server.evals;
  Alcotest.(check bool) "hit returns the cached state" true
    (b.Server.state == a.Server.state);
  check_close 0.0 "same mean time" a.Server.mean_time b.Server.mean_time;
  let s = Server.stats t in
  Alcotest.(check int) "one hit" 1 s.Server.hit;
  Alcotest.(check int) "one cold solve" 1 s.Server.cold;
  Alcotest.(check int) "miss evals accounted" a.Server.evals
    s.Server.miss_evals

(* The acceptance check: every served fixed point, across the whole
   default model zoo and all three non-hit tiers, re-verifies against
   the model's own derivative. *)
let test_server_residuals_across_registry () =
  let t = Server.create () in
  let tol = (Server.config t).Server.tol in
  let guard = (Server.config t).Server.guard_factor in
  List.iter
    (fun name ->
      let fam = resolve_exn name [] in
      (* ascending sweep primes the cache, then an off-grid query gives
         interpolation a chance; every tier's answer is re-certified *)
      let lambdas = [ 0.5; 0.52; 0.54; 0.56; 0.58; 0.6; 0.9; 0.57 ] in
      List.iter
        (fun lambda ->
          let a = Server.answer t fam lambda in
          let model = fam.Families.build a.Server.lambda in
          let r = Meanfield.Drive.residual model a.Server.state in
          let bound =
            match a.Server.source with
            | Server.Interpolated -> tol *. guard
            | _ -> tol
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s at %g (%s): residual %.2e <= %.2e" name
               lambda
               (Server.source_name a.Server.source)
               r bound)
            true (r <= bound);
          Alcotest.(check bool)
            (Printf.sprintf "%s at %g: reported residual matches" name
               lambda)
            true
            (Float.abs (r -. a.Server.residual) <= 1e-13))
        lambdas)
    Workload.default_models

let test_server_warm_start_accounting () =
  let t = Server.create () in
  let fam = resolve_exn "threshold" [] in
  let a = Server.answer t fam 0.8 in
  let b = Server.answer t fam 0.82 in
  (* 0.82 is outside interp range (no bracket) but has a neighbour *)
  Alcotest.(check string) "neighbour start wins for threshold" "warm"
    (Server.source_name b.Server.source);
  Alcotest.(check bool) "warm solve is cheaper" true
    (b.Server.evals < a.Server.evals);
  let s = Server.stats t in
  Alcotest.(check int) "warm counted" 1 s.Server.warm;
  Alcotest.(check int) "miss evals are the sum"
    (a.Server.evals + b.Server.evals)
    s.Server.miss_evals

let test_server_mm1_keeps_default_start () =
  (* mm1's initial_warm is its closed-form fixed point: the neighbour
     start must lose the residual comparison, and the solve must stay
     near-free instead of relaxing away from the neighbour *)
  let t = Server.create () in
  let fam = resolve_exn "mm1" [] in
  ignore (Server.answer t fam 0.5);
  let b = Server.answer t fam 0.9 in
  Alcotest.(check string) "neighbour rejected" "cold"
    (Server.source_name b.Server.source);
  Alcotest.(check bool)
    (Printf.sprintf "default start is near-free (%d evals)" b.Server.evals)
    true
    (b.Server.evals < 100)

let test_server_interpolation () =
  let t = Server.create () in
  let fam = resolve_exn "threshold" [] in
  let cfg = Server.config t in
  (* prime a dense ascending chain, gaps well under interp_gap *)
  let grid = [ 0.8; 0.81; 0.82; 0.83; 0.84; 0.85 ] in
  List.iter (fun l -> ignore (Server.answer t fam l)) grid;
  let a = Server.answer t fam 0.825 in
  Alcotest.(check string) "sub-grid query interpolates" "interpolated"
    (Server.source_name a.Server.source);
  Alcotest.(check int) "one certifying eval" 1 a.Server.evals;
  Alcotest.(check bool) "residual within the guard" true
    (a.Server.residual <= cfg.Server.tol *. cfg.Server.guard_factor);
  (* interpolated entries are inserted: the same query now hits *)
  let b = Server.answer t fam 0.825 in
  Alcotest.(check string) "inserted into the cache" "hit"
    (Server.source_name b.Server.source)

let test_server_interp_guard_falls_through () =
  (* a sparse, wide chain must not interpolate: the bracket is wider
     than interp_gap, so the query falls through to a solve *)
  let t = Server.create () in
  let fam = resolve_exn "threshold" [] in
  List.iter
    (fun l -> ignore (Server.answer t fam l))
    [ 0.5; 0.6; 0.7; 0.8 ];
  let a = Server.answer t fam 0.65 in
  Alcotest.(check bool) "wide bracket does not interpolate" true
    (match a.Server.source with
    | Server.Interpolated -> false
    | _ -> true)

(* ---------- Server: batches ---------- *)

let batch_queries () =
  let thr = resolve_exn "threshold" [] in
  let mc = resolve_exn "multi-choice" [] in
  [
    (thr, 0.9);
    (mc, 0.6);
    (thr, 0.55);
    (mc, 0.9);
    (thr, 0.7);
    (thr, 0.55);
  ]

let test_server_batch_order () =
  let t = Server.create () in
  let queries = batch_queries () in
  let answers = Server.answer_batch t queries in
  Alcotest.(check int) "one answer per query" (List.length queries)
    (List.length answers);
  List.iter2
    (fun (fam, lambda) a ->
      Alcotest.(check string) "family preserved" fam.Families.family
        a.Server.family.Families.family;
      check_close 0.0 "lambda preserved" (Key.canon_float lambda)
        a.Server.lambda)
    queries answers;
  (* the duplicate 0.55 query resolves to one solve plus one hit *)
  let s = Server.stats t in
  Alcotest.(check int) "five distinct solves"
    5
    (s.Server.warm + s.Server.cold + s.Server.interpolated);
  Alcotest.(check int) "duplicate is a hit" 1 s.Server.hit

let test_server_batch_pool_invariant () =
  (* chains are pairwise independent and sequential within themselves,
     so the batch must be bit-identical at any pool size *)
  let run domains =
    let pool = Parallel.Pool.create ~domains in
    let t = Server.create () in
    Server.answer_batch ~pool t (batch_queries ())
  in
  let a = run 1 and b = run 4 in
  List.iter2
    (fun x y ->
      Alcotest.(check string) "same source"
        (Server.source_name x.Server.source)
        (Server.source_name y.Server.source);
      Alcotest.(check int) "same evals" x.Server.evals y.Server.evals;
      Alcotest.(check bool) "bitwise-equal states" true
        (Float.equal (Numerics.Vec.dist_inf x.Server.state y.Server.state)
           0.0))
    a b

(* ---------- solve_group ---------- *)

let test_server_group_anchor () =
  (* a fully cold miss train: the group scalar-solves the median λ as
     an anchor, then lockstep-solves the rest warm-started off it *)
  let t = Server.create () in
  let fam = resolve_exn "simple" [] in
  let lambdas = [ 0.7; 0.72; 0.74 ] in
  let answers = Server.solve_group t fam lambdas in
  Alcotest.(check int) "one answer per lambda" 3 (List.length answers);
  List.iter2
    (fun l a ->
      check_close 0.0 "ordered" (Key.canon_float l) a.Server.lambda;
      Alcotest.(check bool) "certified" true
        (a.Server.residual <= (Server.config t).Server.tol))
    lambdas answers;
  let sources = List.map (fun a -> Server.source_name a.Server.source) answers in
  Alcotest.(check (list string)) "anchor cold, flanks warm"
    [ "warm"; "cold"; "warm" ] sources;
  let s = Server.stats t in
  Alcotest.(check int) "one lockstep solve" 1 s.Server.batched_solves;
  Alcotest.(check int) "two batched columns" 2 s.Server.batched_columns

(* ---------- Protocol ---------- *)

let member_exn v key =
  match Wire.member key v with
  | Some x -> x
  | None -> Alcotest.failf "response lacks %S: %s" key (Wire.to_string v)

let ok v =
  match member_exn v "ok" with
  | Wire.Bool b -> b
  | _ -> Alcotest.fail "ok is not a bool"

let test_protocol_single_query () =
  let t = Server.create () in
  let resp =
    Wire.of_string
      (Protocol.handle_line t
         "{\"model\": \"threshold\", \"lambda\": 0.90, \"tail\": 3}")
  in
  Alcotest.(check bool) "ok" true (ok resp);
  (match member_exn resp "lambda" with
  | Wire.Num l -> check_close 0.0 "canonical lambda" 0.9 l
  | _ -> Alcotest.fail "lambda is not a number");
  (match member_exn resp "state" with
  | Wire.Arr tail -> Alcotest.(check int) "tail truncated" 3 (List.length tail)
  | _ -> Alcotest.fail "state is not an array");
  match member_exn resp "source" with
  | Wire.Str s -> Alcotest.(check string) "source" "cold" s
  | _ -> Alcotest.fail "source is not a string"

let test_protocol_errors_stay_on_the_line () =
  let t = Server.create () in
  List.iter
    (fun line ->
      let resp = Wire.of_string (Protocol.handle_line t line) in
      Alcotest.(check bool) (Printf.sprintf "%S fails" line) false (ok resp))
    [
      "not json";
      "{\"lambda\": 0.9}";
      "{\"model\": \"no-such\", \"lambda\": 0.9}";
      "{\"model\": \"threshold\", \"lambda\": 1.5}";
      "{\"model\": \"threshold\", \"lambda\": 0.9, \"params\": {\"bogus\": 1}}";
      (* 1e999 reads as infinity: rejected wherever it lands — λ by the
         model's stability check, a float param by key canonicalisation,
         an int param by the integer check *)
      "{\"model\": \"threshold\", \"lambda\": 1e999}";
      "{\"model\": \"simple\", \"lambda\": 0.9, \"params\": {\"rate\": 1e999}}";
      "{\"model\": \"threshold\", \"lambda\": 0.9, \"params\": {\"threshold\": \
       1e999}}";
    ]

let test_protocol_batch_mixed () =
  let t = Server.create () in
  let resp =
    Wire.of_string
      (Protocol.handle_line t
         "[{\"model\": \"threshold\", \"lambda\": 0.8}, {\"model\": \
          \"no-such\", \"lambda\": 0.8}, {\"model\": \"mm1\", \"lambda\": \
          0.8}]")
  in
  match resp with
  | Wire.Arr [ a; b; c ] ->
      Alcotest.(check bool) "good slot ok" true (ok a);
      Alcotest.(check bool) "bad slot fails alone" false (ok b);
      Alcotest.(check bool) "later slot unaffected" true (ok c)
  | _ -> Alcotest.failf "expected a 3-array: %s" (Wire.to_string resp)

let test_protocol_ops () =
  let t = Server.create () in
  let ping = Wire.of_string (Protocol.handle_line t "{\"op\": \"ping\"}") in
  Alcotest.(check bool) "ping ok" true (ok ping);
  ignore (Server.answer t (resolve_exn "threshold" []) 0.8);
  let stats = Wire.of_string (Protocol.handle_line t "{\"op\": \"stats\"}") in
  Alcotest.(check bool) "stats ok" true (ok stats);
  match member_exn stats "cold" with
  | Wire.Num n -> check_close 0.0 "one cold solve" 1.0 n
  | _ -> Alcotest.fail "cold is not a number"

(* ---------- Conn ---------- *)

(* The daemon's connection loop on one end of a socketpair, served by
   its own thread the way Pool.host would run it; [finished] turns true
   when [Conn.serve] returns. *)
let with_conn f =
  let t = Server.create () in
  let pool = Parallel.Pool.create ~domains:1 in
  let conns = Conn.create ~pool t in
  let client, daemon = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let finished = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Conn.serve conns ~domain:0 daemon;
        Atomic.set finished true)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client with Unix.Unix_error _ -> ());
      Thread.join th;
      Parallel.Pool.shutdown pool)
    (fun () -> f client finished)

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

let send fd s = write_all fd (Bytes.of_string s) 0 (String.length s)

let test_conn_overlong_line () =
  with_conn (fun client _ ->
      let ic = Unix.in_channel_of_descr client in
      send client (String.make (Conn.max_line + 1) 'x' ^ "\n");
      send client "{\"op\": \"ping\"}\n{\"op\": \"stats\"}\n";
      let too_long = Wire.of_string (input_line ic) in
      Alcotest.(check bool) "over-long line fails" false (ok too_long);
      (match member_exn too_long "error" with
      | Wire.Str e ->
          Alcotest.(check bool) ("names the limit: " ^ e) true
            (String.starts_with ~prefix:"request line longer than" e)
      | _ -> Alcotest.fail "error is not a string");
      Alcotest.(check bool) "next ping ok" true
        (ok (Wire.of_string (input_line ic)));
      let stats = Wire.of_string (input_line ic) in
      (match member_exn stats "domain_requests" with
      | Wire.Arr [ Wire.Num n ] ->
          check_close 0.0 "two answered before stats" 2.0 n
      | v -> Alcotest.failf "domain_requests: %s" (Wire.to_string v));
      match member_exn stats "serving_domains" with
      | Wire.Num n -> check_close 0.0 "one serving domain" 1.0 n
      | _ -> Alcotest.fail "serving_domains is not a number")

let test_conn_close_mid_line () =
  with_conn (fun client finished ->
      send client "{\"op\": \"ping\"}\n{\"op\":";
      let ic = Unix.in_channel_of_descr client in
      Alcotest.(check bool) "complete line answered" true
        (ok (Wire.of_string (input_line ic)));
      Unix.shutdown client Unix.SHUTDOWN_SEND;
      let rec wait k =
        if not (Atomic.get finished) then begin
          if k = 0 then Alcotest.fail "handler still running";
          Thread.delay 0.001;
          wait (k - 1)
        end
      in
      wait 30_000;
      Alcotest.check_raises "no answer to the partial line" End_of_file
        (fun () -> ignore (input_line ic)))

(* Four connections hosted on a 2-domain pool send the same miss train
   of one family, so equal-λ misses race across domains. Every answer
   must be certified, racing answers must agree, and every query must
   be counted exactly once. *)
let test_conn_concurrent_misses () =
  let t = Server.create () in
  let tol = (Server.config t).Server.tol in
  let pool = Parallel.Pool.create ~domains:2 in
  let conns = Conn.create ~pool t in
  let lambdas = [ 0.71; 0.73; 0.75 ] in
  let train =
    String.concat ""
      (List.map
         (Printf.sprintf "{\"model\": \"simple\", \"lambda\": %g}\n")
         lambdas)
  in
  let clients =
    Array.init 4 (fun _ ->
        let client, daemon = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        ignore
          (Parallel.Pool.host pool (fun domain ->
               Conn.serve conns ~domain daemon));
        client)
  in
  let live = Array.make (Array.length clients) true in
  let close i =
    if live.(i) then begin
      live.(i) <- false;
      Unix.close clients.(i)
    end
  in
  let num v key =
    match member_exn v key with
    | Wire.Num x -> x
    | _ -> Alcotest.failf "%s is not a number" key
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iteri (fun i _ -> close i) clients;
      Parallel.Pool.shutdown pool)
    (fun () ->
      (* every train is sent before any answer is read, so the four
         connections' misses overlap *)
      Array.iter (fun c -> send c train) clients;
      let chans = Array.map Unix.in_channel_of_descr clients in
      let answers =
        Array.map
          (fun ic -> List.map (fun _ -> Wire.of_string (input_line ic)) lambdas)
          chans
      in
      Array.iter
        (List.iter2
           (fun l a ->
             Alcotest.(check bool) "ok" true (ok a);
             check_close 0.0 "answers its lambda" (Key.canon_float l)
               (num a "lambda");
             Alcotest.(check bool) "certified" true (num a "residual" <= tol))
           lambdas)
        answers;
      Array.iter
        (List.iter2
           (fun a b ->
             let x = num a "mean_time" and y = num b "mean_time" in
             Alcotest.(check bool)
               (Printf.sprintf "equal-lambda answers agree: %.12g vs %.12g" x y)
               true
               (Float.abs (x -. y) <= 1e-6 *. Float.abs x))
           answers.(0))
        answers;
      (* stats once the other three handlers have ended, so every count
         they make is in *)
      for i = 1 to Array.length clients - 1 do
        close i
      done;
      let rec wait k =
        if Array.fold_left ( + ) 0 (Parallel.Pool.hosted pool) > 1 then begin
          if k = 0 then Alcotest.fail "handlers still running";
          Thread.delay 0.001;
          wait (k - 1)
        end
      in
      wait 30_000;
      send clients.(0) "{\"op\": \"stats\"}\n";
      let stats = Wire.of_string (input_line chans.(0)) in
      let sent = Array.length clients * List.length lambdas in
      check_close 0.0 "served counts every query" (float_of_int sent)
        (num stats "served");
      check_close 0.0 "one cache entry per lambda"
        (float_of_int (List.length lambdas))
        (num stats "cache_entries");
      (match member_exn stats "domain_requests" with
      | Wire.Arr counts ->
          let total =
            List.fold_left
              (fun acc v ->
                match v with
                | Wire.Num n -> acc +. n
                | _ -> Alcotest.fail "domain_requests holds a non-number")
              0.0 counts
          in
          check_close 0.0 "every request tallied" (float_of_int sent) total
      | v -> Alcotest.failf "domain_requests: %s" (Wire.to_string v));
      check_close 0.0 "both domains served" 2.0 (num stats "serving_domains"))

(* ---------- Workload ---------- *)

let test_workload_deterministic () =
  let a = Workload.stream 500 and b = Workload.stream 500 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Workload.stream ~seed:7 500 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  (* seeds congruent to 0 mod 2^31-1 must not freeze the Lehmer LCG *)
  List.iter
    (fun seed ->
      let qs = Workload.stream ~seed 500 in
      let lambdas =
        List.sort_uniq Float.compare
          (List.map (fun q -> q.Workload.lambda) qs)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d varies" seed)
        true
        (List.length lambdas > 1))
    [ 2147483647; 0; -2147483647 ];
  List.iter
    (fun q ->
      Alcotest.(check bool) "model from the zoo" true
        (List.mem q.Workload.model Workload.default_models);
      Alcotest.(check bool) "lambda in range" true
        (q.Workload.lambda >= 0.5 && q.Workload.lambda <= 0.98))
    a

let test_workload_offgrid_share () =
  let grid = 24 and lo = 0.5 and hi = 0.98 in
  let queries = Workload.stream ~grid ~lo ~hi 2_000 in
  let on_grid q =
    let step = (hi -. lo) /. float_of_int (grid - 1) in
    List.exists
      (fun i ->
        Float.equal q.Workload.lambda
          (Key.canon_float (lo +. (float_of_int i *. step))))
      (List.init grid Fun.id)
  in
  let off = List.length (List.filter (fun q -> not (on_grid q)) queries) in
  let share = float_of_int off /. 2_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "off-grid share %.3f near 0.15" share)
    true
    (share > 0.10 && share < 0.20)

let test_workload_burst_mode () =
  (* burst_share = 0 must be byte-identical to the pre-burst stream:
     recorded hit rates (the CI replay gate) depend on it *)
  let plain = Workload.stream 500 in
  Alcotest.(check bool) "burst_share 0 is the default stream" true
    (Workload.stream ~burst_share:0.0 500 = plain);
  let bursty = Workload.stream ~burst_share:0.3 ~burst_len:8 500 in
  Alcotest.(check int) "requested length honoured" 500 (List.length bursty);
  Alcotest.(check bool) "deterministic" true
    (Workload.stream ~burst_share:0.3 ~burst_len:8 500 = bursty);
  (* bursts are same-model runs at ascending consecutive rates — count
     adjacent same-model strictly-ascending pairs, which coalescing and
     lockstep batching feed on; the plain stream has almost none *)
  let ascending_pairs qs =
    let rec go n = function
      | a :: (b :: _ as rest) ->
          let hit =
            String.equal a.Workload.model b.Workload.model
            && a.Workload.lambda < b.Workload.lambda
          in
          go (if hit then n + 1 else n) rest
      | _ -> n
    in
    go 0 qs
  in
  Alcotest.(check bool) "burst trains present" true
    (ascending_pairs bursty > 2 * ascending_pairs plain);
  (* degenerate arguments rejected *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "rejected" true
        (match f () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      (fun () -> Workload.stream ~burst_share:(-0.1) 10);
      (fun () -> Workload.stream ~burst_share:1.5 10);
      (fun () -> Workload.stream ~burst_share:0.3 ~burst_len:0 10);
    ]

(* ---------- Replay counters ---------- *)

(* The seeded heavy stream replayed in-process. Every count below is a
   property of the stream and the solvers, not of the host, so each is
   an exact or one-sided gate at its recorded value: a change that
   caches less or spends more derivative evaluations fails here.
   Latency is measured over the socket by perfbench, not here. *)
let replay_queries = 3000

let resolve_stream stream =
  List.map
    (fun q ->
      ( resolve_exn ~depth:Server.default_config.Server.depth q.Workload.model
          q.Workload.params,
        Key.canon_float q.Workload.lambda ))
    stream

let replay_key (fam, lambda) =
  fam.Families.family ^ "|" ^ Key.canon_string lambda

let test_replay_stream_counters () =
  let tol = Server.default_config.Server.tol in
  let queries = resolve_stream (Workload.stream ~seed:42 replay_queries) in
  (* each distinct key solved once from the model's default start: the
     cold cost the warm tier is measured against *)
  let cold = Hashtbl.create 1024 in
  List.iter
    (fun ((fam, lambda) as q) ->
      let key = replay_key q in
      if not (Hashtbl.mem cold key) then
        Hashtbl.add cold key
          (Meanfield.Drive.fixed_point ~tol (fam.Families.build lambda))
            .Meanfield.Drive.evals)
    queries;
  let distinct = Hashtbl.length cold in
  let cold_evals = Hashtbl.fold (fun _ evals acc -> acc + evals) cold 0 in
  let server = Server.create () in
  let hits = ref 0 and warms = ref 0 in
  let warm_evals = ref 0 and warm_cold_evals = ref 0 in
  List.iter
    (fun ((fam, lambda) as q) ->
      let a = Server.answer server fam lambda in
      match a.Server.source with
      | Server.Hit -> incr hits
      | Server.Warm ->
          incr warms;
          warm_evals := !warm_evals + a.Server.evals;
          warm_cold_evals := !warm_cold_evals + Hashtbl.find cold (replay_key q)
      | Server.Interpolated | Server.Cold -> ())
    queries;
  Alcotest.(check int) "distinct keys" 623 distinct;
  (* every answer is cached, so every repeat of a key is a hit *)
  Alcotest.(check int) "hits" (replay_queries - distinct) !hits;
  let per num den = float_of_int num /. float_of_int den in
  let at_most bound label v =
    Alcotest.(check bool) (Printf.sprintf "%s %.4f <= %.4f" label v bound) true
      (v <= bound)
  in
  (* recorded as 56.478: 26,940 evals over 477 warm misses, and 839,839
     over the 623 cold solves; the bounds are the exact fractions *)
  at_most (26_940.0 /. 477.0) "warm evals per miss" (per !warm_evals !warms);
  at_most (839_839.0 /. 623.0) "cold evals per solve" (per cold_evals distinct);
  (* matched keys: the warm-served keys' own cold cost over their warm
     cost, so the order the cache fills in cannot skew the ratio;
     recorded as 781,744 / 26,940 *)
  let ratio = per !warm_cold_evals !warm_evals in
  let floor = 781_744.0 /. 26_940.0 in
  Alcotest.(check bool)
    (Printf.sprintf "warm vs cold ratio %.5f >= %.5f" ratio floor)
    true (ratio >= floor)

let test_replay_burst_batching () =
  let burst_len = 8 in
  let queries =
    resolve_stream
      (Workload.stream ~seed:42 ~burst_share:0.3 ~burst_len replay_queries)
  in
  let server = Server.create () in
  let rec send = function
    | [] -> ()
    | qs ->
        let chunk = List.filteri (fun i _ -> i < burst_len) qs in
        ignore (Server.answer_batch server chunk);
        send (List.filteri (fun i _ -> i >= burst_len) qs)
  in
  send queries;
  let s = Server.stats server in
  Alcotest.(check int) "batched solves" 32 s.Server.batched_solves;
  Alcotest.(check int) "batched columns" 108 s.Server.batched_columns

let () =
  Alcotest.run "serve"
    [
      ( "key",
        [
          Alcotest.test_case "canonical floats coalesce" `Quick
            test_key_canon_coalesces;
          Alcotest.test_case "canonical strings" `Quick
            test_key_canon_strings;
          Alcotest.test_case "family format" `Quick test_key_family_format;
        ] );
      ( "wire",
        [
          Alcotest.test_case "round trip" `Quick test_wire_round_trip;
          Alcotest.test_case "rejects garbage" `Quick
            test_wire_rejects_garbage;
        ] );
      ( "families",
        [
          Alcotest.test_case "resolve" `Quick test_families_resolve;
          Alcotest.test_case "caps solve-cost parameters" `Quick
            test_families_cap_solve_cost;
          Alcotest.test_case "build shares one dim" `Quick
            test_families_build_shares_dim;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit, miss, chain" `Quick
            test_cache_hit_miss_chain;
          Alcotest.test_case "rejects bad shards" `Quick
            test_cache_rejects_bad_shards;
        ] );
      ( "server",
        [
          Alcotest.test_case "cold then hit" `Quick test_server_cold_then_hit;
          Alcotest.test_case "residuals across the registry" `Slow
            test_server_residuals_across_registry;
          Alcotest.test_case "warm-start accounting" `Quick
            test_server_warm_start_accounting;
          Alcotest.test_case "mm1 keeps its default start" `Quick
            test_server_mm1_keeps_default_start;
          Alcotest.test_case "interpolation" `Quick test_server_interpolation;
          Alcotest.test_case "interp guard falls through" `Quick
            test_server_interp_guard_falls_through;
          Alcotest.test_case "batch order" `Quick test_server_batch_order;
          Alcotest.test_case "batch pool invariance" `Slow
            test_server_batch_pool_invariant;
          Alcotest.test_case "cold group anchors on the median" `Quick
            test_server_group_anchor;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "single query" `Quick test_protocol_single_query;
          Alcotest.test_case "errors stay on the line" `Quick
            test_protocol_errors_stay_on_the_line;
          Alcotest.test_case "mixed batch" `Quick test_protocol_batch_mixed;
          Alcotest.test_case "ops" `Quick test_protocol_ops;
        ] );
      ( "conn",
        [
          Alcotest.test_case "over-long line" `Quick test_conn_overlong_line;
          Alcotest.test_case "close mid-line" `Quick test_conn_close_mid_line;
          Alcotest.test_case "concurrent misses all counted" `Quick
            test_conn_concurrent_misses;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick
            test_workload_deterministic;
          Alcotest.test_case "off-grid share" `Quick
            test_workload_offgrid_share;
          Alcotest.test_case "burst mode" `Quick test_workload_burst_mode;
        ] );
      ( "replay",
        [
          Alcotest.test_case "heavy stream counters" `Slow
            test_replay_stream_counters;
          Alcotest.test_case "burst batching counters" `Slow
            test_replay_burst_batching;
        ] );
    ]
