(* Tests for the domain pool: ordering, exception propagation, nesting,
   and the load-bearing guarantee that Runner.replicate is bit-for-bit
   identical at every domain count. *)

let with_pool ~domains f =
  let pool = Parallel.Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () ->
      f pool)

let pool_sizes = [ 1; 2; 3; 4 ]

(* ---------- pool mechanics ---------- *)

let test_map_matches_list_map () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let xs = List.init 25 Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "%d domains" domains)
            (List.map (fun x -> (x * x) + 1) xs)
            (Parallel.Pool.map pool (fun x -> (x * x) + 1) xs)))
    pool_sizes

let test_map_array_ordering () =
  with_pool ~domains:4 (fun pool ->
      (* skewed task durations: late indices finish first unless results
         are re-ordered correctly *)
      let xs = Array.init 16 Fun.id in
      let f i =
        let spin = ref 0.0 in
        for _ = 1 to (16 - i) * 10_000 do
          spin := !spin +. 1.0
        done;
        ignore !spin;
        2 * i
      in
      Alcotest.(check (array int))
        "order preserved" (Array.map (fun i -> 2 * i) xs)
        (Parallel.Pool.map_array pool f xs))

let test_empty_and_singleton () =
  with_pool ~domains:3 (fun pool ->
      Alcotest.(check (list int)) "empty" []
        (Parallel.Pool.map pool Fun.id []);
      Alcotest.(check (list string))
        "singleton" [ "7" ]
        (Parallel.Pool.map pool string_of_int [ 7 ]))

let test_exception_propagates () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "raises at %d domains" domains)
            (Failure "task 3") (fun () ->
              ignore
                (Parallel.Pool.map pool
                   (fun i ->
                     if i = 3 then failwith "task 3" else string_of_int i)
                   [ 0; 1; 2; 3 ]))))
    [ 1; 2 ]

let test_nested_maps () =
  (* a task on the pool issuing its own map on the same pool must not
     deadlock: exactly what a parallel experiment row running a parallel
     Runner.replicate does *)
  with_pool ~domains:2 (fun pool ->
      let rows =
        Parallel.Pool.map pool
          (fun i ->
            Parallel.Pool.map pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check (list (list int)))
        "nested results"
        (List.map (fun i -> List.map (fun j -> (10 * i) + j) [ 0; 1; 2 ])
           [ 0; 1; 2; 3 ])
        rows)

let test_pool_reusable () =
  with_pool ~domains:2 (fun pool ->
      for round = 1 to 5 do
        let n = 4 * round in
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          (n * (n - 1) / 2)
          (List.fold_left ( + ) 0
             (Parallel.Pool.map pool Fun.id (List.init n Fun.id)))
      done)

let test_shutdown_rejects_further_maps () =
  let pool = Parallel.Pool.create ~domains:2 in
  Alcotest.(check int) "domains" 2 (Parallel.Pool.domains pool);
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "rejects"
    (Invalid_argument "Pool.map_array: pool is shut down") (fun () ->
      ignore (Parallel.Pool.map_array pool Fun.id [| 1; 2 |]))

let test_default_pool () =
  let p = Parallel.Pool.default () in
  Alcotest.(check bool) "at least one domain" true
    (Parallel.Pool.domains p >= 1);
  Alcotest.(check bool) "same pool on second call" true
    (p == Parallel.Pool.default ());
  Alcotest.(check (list int)) "usable" [ 2; 4; 6 ]
    (Parallel.Pool.map p (fun x -> 2 * x) [ 1; 2; 3 ])

let qcheck_pool_map_is_map =
  QCheck.Test.make ~count:50 ~name:"pool map = List.map at any domain count"
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (xs, domains) ->
      with_pool ~domains (fun pool ->
          Parallel.Pool.map pool (fun x -> (3 * x) - 1) xs
          = List.map (fun x -> (3 * x) - 1) xs))

(* ---------- hosted threads ---------- *)

(* Poll [pred] every millisecond; fail after about [ticks] polls, so a
   deadlock fails the test instead of hanging it. *)
let wait_for ?(ticks = 30_000) what pred =
  let rec go k =
    if not (pred ()) then begin
      if k = 0 then Alcotest.failf "timed out waiting for %s" what;
      Thread.delay 0.001;
      go (k - 1)
    end
  in
  go ticks

let hosted_is pool expected () = Parallel.Pool.hosted pool = expected

type seen = { lock : Mutex.t; mutable at : (int * int) list }

let seen () = { lock = Mutex.create (); at = [] }
let seen_list s = Mutex.protect s.lock (fun () -> List.rev s.at)

(* Host a thread that records its domain index and [Domain.self ()],
   then blocks until [release] is set; returns the index [host] chose. *)
let host_blocked pool seen release =
  Parallel.Pool.host pool (fun i ->
      Mutex.protect seen.lock (fun () ->
          seen.at <- (i, (Domain.self () :> int)) :: seen.at);
      wait_for "release" (fun () -> Atomic.get release))

let test_host_distinct_domains () =
  with_pool ~domains:3 (fun pool ->
      let s = seen () and release = Atomic.make false in
      let placed = List.init 3 (fun _ -> host_blocked pool s release) in
      Alcotest.(check (list int)) "placed" [ 0; 1; 2 ] placed;
      wait_for "three hosted threads" (fun () -> List.length (seen_list s) = 3);
      Atomic.set release true;
      let at =
        List.sort (fun (i, _) (j, _) -> Int.compare i j) (seen_list s)
      in
      Alcotest.(check (list int)) "indices" [ 0; 1; 2 ] (List.map fst at);
      Alcotest.(check int) "distinct domains" 3
        (List.length (List.sort_uniq Int.compare (List.map snd at)));
      Alcotest.(check int) "index 0 is the caller's domain"
        (Domain.self () :> int)
        (List.assoc 0 at);
      wait_for "hosted threads to end" (hosted_is pool [| 0; 0; 0 |]))

let test_host_least_loaded () =
  with_pool ~domains:3 (fun pool ->
      let s = seen () in
      let releases = Array.init 4 (fun _ -> Atomic.make false) in
      Fun.protect
        ~finally:(fun () -> Array.iter (fun r -> Atomic.set r true) releases)
        (fun () ->
          Alcotest.(check int) "ties go to the lowest index" 0
            (host_blocked pool s releases.(0));
          Alcotest.(check (array int)) "one hosted" [| 1; 0; 0 |]
            (Parallel.Pool.hosted pool);
          for k = 1 to 2 do
            ignore (host_blocked pool s releases.(k))
          done;
          Alcotest.(check (array int)) "one each" [| 1; 1; 1 |]
            (Parallel.Pool.hosted pool);
          wait_for "three hosted threads" (fun () ->
              List.length (seen_list s) = 3);
          Atomic.set releases.(1) true;
          wait_for "domain 1 to empty" (hosted_is pool [| 1; 0; 1 |]);
          Alcotest.(check int) "placed on the emptied domain" 1
            (host_blocked pool s releases.(3));
          Alcotest.(check (array int)) "refilled the idle domain"
            [| 1; 1; 1 |] (Parallel.Pool.hosted pool);
          wait_for "the fourth thread" (fun () ->
              List.length (seen_list s) = 4);
          let at = seen_list s in
          Alcotest.(check int) "fourth thread on index 1" 1
            (fst (List.nth at 3));
          Alcotest.(check int) "on the same domain as the one that left"
            (List.assoc 1 at)
            (snd (List.nth at 3)));
      wait_for "hosted threads to end" (hosted_is pool [| 0; 0; 0 |]))

let test_host_maps_on_own_pool () =
  (* each hosted thread shares its domain with a worker loop (or with
     the caller); a map from it must still finish *)
  with_pool ~domains:2 (fun pool ->
      let results = Array.make 2 [] in
      let lock = Mutex.create () in
      let placed =
        List.init 2 (fun _ ->
            Parallel.Pool.host pool (fun i ->
                let rows =
                  Parallel.Pool.map pool
                    (fun x ->
                      List.fold_left ( + ) 0
                        (Parallel.Pool.map pool (fun y -> x * y) [ 1; 2; 3 ]))
                    (List.init 20 Fun.id)
                in
                Mutex.protect lock (fun () -> results.(i) <- rows)))
      in
      Alcotest.(check (list int)) "one per domain" [ 0; 1 ] placed;
      wait_for "both hosted maps" (hosted_is pool [| 0; 0 |]);
      let expected = List.init 20 (fun x -> 6 * x) in
      Array.iteri
        (fun i rows ->
          Alcotest.(check (list int)) (Printf.sprintf "domain %d" i) expected
            rows)
        (Mutex.protect lock (fun () -> Array.copy results)))

let test_host_not_started_by_help () =
  (* domain 0 keeps a help loop busy popping shared tasks while hosting
     requests go to domain 1: none may start on domain 0 *)
  with_pool ~domains:2 (fun pool ->
      let stop = Atomic.make false in
      Fun.protect
        ~finally:(fun () -> Atomic.set stop true)
        (fun () ->
          let helper =
            Parallel.Pool.host pool (fun _ ->
                while not (Atomic.get stop) do
                  ignore
                    (Parallel.Pool.map pool (fun x -> x + 1)
                       (List.init 64 Fun.id))
                done)
          in
          Alcotest.(check int) "helper on domain 0" 0 helper;
          let s = seen () and release = Atomic.make true in
          for _ = 1 to 10 do
            wait_for "domain 1 to empty" (hosted_is pool [| 1; 0 |]);
            Alcotest.(check int) "placed on domain 1" 1
              (host_blocked pool s release)
          done;
          wait_for "domain 1 to empty" (hosted_is pool [| 1; 0 |]);
          let at = seen_list s in
          Alcotest.(check int) "ten hosted" 10 (List.length at);
          List.iter
            (fun (i, d) ->
              Alcotest.(check int) "index" 1 i;
              Alcotest.(check bool) "not the caller's domain" true
                (d <> (Domain.self () :> int)))
            at);
      wait_for "the helper to end" (hosted_is pool [| 0; 0 |]))

let test_host_size_one () =
  with_pool ~domains:1 (fun pool ->
      let s = seen () and release = Atomic.make true in
      Alcotest.(check (list int)) "placed" [ 0; 0 ]
        (List.init 2 (fun _ -> host_blocked pool s release));
      wait_for "hosted threads to end" (hosted_is pool [| 0 |]);
      Alcotest.(check (list (pair int int)))
        "both on the caller's domain"
        (List.init 2 (fun _ -> (0, (Domain.self () :> int))))
        (seen_list s))

let test_shutdown_waits_for_hosted () =
  List.iter
    (fun domains ->
      let pool = Parallel.Pool.create ~domains in
      let finished = Atomic.make 0 in
      for _ = 1 to 3 do
        ignore
          (Parallel.Pool.host pool (fun _ ->
               Thread.delay 0.1;
               Atomic.incr finished))
      done;
      Parallel.Pool.shutdown pool;
      Alcotest.(check int)
        (Printf.sprintf "every hosted thread ended first, %d domains" domains)
        3 (Atomic.get finished);
      Alcotest.check_raises "rejects"
        (Invalid_argument "Pool.host: pool is shut down") (fun () ->
          ignore (Parallel.Pool.host pool ignore)))
    [ 1; 2 ]

(* ---------- serial = parallel for the replication protocol ---------- *)

(* Bit-identical comparison, NaN-reflexive: short or empty measurement
   windows legitimately produce [nan] statistics (see Runner), and a
   polymorphic (=) would call two such runs different. *)
let summary_eq (a : Wsim.Runner.summary) (b : Wsim.Runner.summary) =
  a.Wsim.Runner.runs = b.Wsim.Runner.runs
  && Float.equal a.Wsim.Runner.mean_sojourn b.Wsim.Runner.mean_sojourn
  && Float.equal a.Wsim.Runner.sojourn_ci95 b.Wsim.Runner.sojourn_ci95
  && Float.equal a.Wsim.Runner.mean_load b.Wsim.Runner.mean_load
  && Float.equal a.Wsim.Runner.steal_success_rate
       b.Wsim.Runner.steal_success_rate

let run_eq (a : Wsim.Cluster.result) (b : Wsim.Cluster.result) =
  a.Wsim.Cluster.completed = b.Wsim.Cluster.completed
  && Float.equal a.Wsim.Cluster.mean_sojourn b.Wsim.Cluster.mean_sojourn
  && a.Wsim.Cluster.steal_attempts = b.Wsim.Cluster.steal_attempts
  && a.Wsim.Cluster.steal_successes = b.Wsim.Cluster.steal_successes

let per_run_eq (a : Wsim.Runner.summary) (b : Wsim.Runner.summary) =
  Array.length a.Wsim.Runner.per_run = Array.length b.Wsim.Runner.per_run
  && Array.for_all2 run_eq a.Wsim.Runner.per_run b.Wsim.Runner.per_run

let replicate_with ~domains ~seed ~runs config =
  with_pool ~domains (fun pool ->
      Wsim.Runner.replicate ~pool ~seed
        ~fidelity:{ Wsim.Runner.runs; horizon = 1_500.0; warmup = 150.0 }
        config)

let test_replicate_domain_invariance () =
  let config =
    {
      Wsim.Cluster.default with
      n = 16;
      arrival_rate = 0.9;
      policy = Wsim.Policy.simple;
    }
  in
  List.iter
    (fun seed ->
      let reference = replicate_with ~domains:1 ~seed ~runs:5 config in
      List.iter
        (fun domains ->
          let parallel = replicate_with ~domains ~seed ~runs:5 config in
          Alcotest.(check bool)
            (Printf.sprintf "summary, seed %d, %d domains" seed domains)
            true
            (summary_eq reference parallel);
          Alcotest.(check bool)
            (Printf.sprintf "per-run, seed %d, %d domains" seed domains)
            true
            (per_run_eq reference parallel))
        [ 2; 3; 4 ])
    [ 1; 42; 20260704 ]

let test_replicate_matches_unpooled () =
  (* the default-pool path (no explicit pool) agrees with an explicit
     serial pool: the pre-split makes the pool size invisible *)
  let config = { Wsim.Cluster.default with n = 8; arrival_rate = 0.7 } in
  let fidelity = { Wsim.Runner.runs = 3; horizon = 1_500.0; warmup = 150.0 } in
  let a = Wsim.Runner.replicate ~seed:11 ~fidelity config in
  let b =
    with_pool ~domains:1 (fun pool ->
        Wsim.Runner.replicate ~pool ~seed:11 ~fidelity config)
  in
  Alcotest.(check bool) "identical" true (summary_eq a b)

let test_replicate_static_domain_invariance () =
  let config =
    {
      Wsim.Cluster.default with
      n = 16;
      arrival_rate = 0.0;
      initial_load = 6;
      policy = Wsim.Policy.simple;
    }
  in
  let run ~domains =
    with_pool ~domains (fun pool ->
        Wsim.Runner.replicate_static ~pool ~seed:77 ~runs:6 config)
  in
  let reference = run ~domains:1 in
  List.iter
    (fun domains ->
      let parallel = run ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "static summary at %d domains" domains)
        true
        (summary_eq reference parallel && per_run_eq reference parallel))
    [ 2; 4 ]

let qcheck_replicate_serial_equals_parallel =
  QCheck.Test.make ~count:12
    ~name:"replicate: serial = parallel across seeds and domain counts"
    QCheck.(triple (int_bound 10_000) (int_range 2 4) (int_range 1 4))
    (fun (seed, runs, domains) ->
      let config =
        {
          Wsim.Cluster.default with
          n = 8;
          arrival_rate = 0.8;
          policy = Wsim.Policy.simple;
        }
      in
      let a = replicate_with ~domains:1 ~seed ~runs config in
      let b = replicate_with ~domains ~seed ~runs config in
      summary_eq a b && per_run_eq a b)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map = List.map" `Quick
            test_map_matches_list_map;
          Alcotest.test_case "ordering under skew" `Quick
            test_map_array_ordering;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested maps" `Quick test_nested_maps;
          Alcotest.test_case "reusable across batches" `Quick
            test_pool_reusable;
          Alcotest.test_case "shutdown" `Quick
            test_shutdown_rejects_further_maps;
          Alcotest.test_case "default pool" `Quick test_default_pool;
          QCheck_alcotest.to_alcotest qcheck_pool_map_is_map;
        ] );
      ( "host",
        [
          Alcotest.test_case "distinct domains" `Quick
            test_host_distinct_domains;
          Alcotest.test_case "least-loaded placement" `Quick
            test_host_least_loaded;
          Alcotest.test_case "maps from hosted threads" `Quick
            test_host_maps_on_own_pool;
          Alcotest.test_case "never started by a help loop" `Quick
            test_host_not_started_by_help;
          Alcotest.test_case "size-1 pool" `Quick test_host_size_one;
          Alcotest.test_case "shutdown waits" `Quick
            test_shutdown_waits_for_hosted;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replicate invariant in domains" `Slow
            test_replicate_domain_invariance;
          Alcotest.test_case "default pool matches serial" `Quick
            test_replicate_matches_unpooled;
          Alcotest.test_case "replicate_static invariant" `Quick
            test_replicate_static_domain_invariance;
          QCheck_alcotest.to_alcotest
            qcheck_replicate_serial_equals_parallel;
        ] );
    ]
