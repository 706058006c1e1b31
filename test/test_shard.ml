(* Tests for the sharded simulator: mailbox FIFO semantics, the
   shards = 1 contract (draw-for-draw reproduction of Cluster, checked
   against the same hex goldens test_sim.ml pins), and the multi-shard
   determinism contract (bit-identical across repeats and across pool
   sizes at a fixed shard count). *)

(* ---------- Mailbox ---------- *)

let drain_all mb =
  let out = ref [] in
  Wsim.Mailbox.drain mb ~f:(fun ~time ~payload ~aux ->
      out := (time, payload, aux) :: !out);
  List.rev !out

let test_mailbox_fifo () =
  let mb = Wsim.Mailbox.create () in
  Alcotest.(check bool) "starts empty" true (Wsim.Mailbox.is_empty mb);
  let msgs =
    [ (3.0, 7, 0.5); (1.0, 2, -1.0); (2.0, 9, 0.25); (1.5, 4, 0.0) ]
  in
  List.iter
    (fun (time, payload, aux) -> Wsim.Mailbox.push mb ~time ~payload ~aux)
    msgs;
  Alcotest.(check int) "length" 4 (Wsim.Mailbox.length mb);
  (* push order, not time order: the consumer re-schedules into its own
     future-event set, so the mailbox must not sort *)
  Alcotest.(check (list (triple (float 0.0) int (float 0.0))))
    "push (FIFO) order" msgs (drain_all mb);
  Alcotest.(check bool) "empty after drain" true (Wsim.Mailbox.is_empty mb)

let test_mailbox_wraparound () =
  (* capacity 4 ring, cycled far past its size: push/drain rounds must
     keep FIFO order as head and tail wrap, and a larger burst must
     survive growth mid-ring *)
  let mb = Wsim.Mailbox.create ~capacity:4 () in
  for round = 0 to 24 do
    for i = 0 to 2 do
      Wsim.Mailbox.push mb
        ~time:(float_of_int ((3 * round) + i))
        ~payload:((100 * round) + i)
        ~aux:0.0
    done;
    let got = drain_all mb in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d payloads" round)
      [ 100 * round; (100 * round) + 1; (100 * round) + 2 ]
      (List.map (fun (_, p, _) -> p) got)
  done;
  for i = 0 to 39 do
    Wsim.Mailbox.push mb ~time:(float_of_int i) ~payload:i ~aux:(float_of_int i)
  done;
  Alcotest.(check int) "burst length" 40 (Wsim.Mailbox.length mb);
  Alcotest.(check (list int))
    "burst survives growth in order"
    (List.init 40 Fun.id)
    (List.map (fun (_, p, _) -> p) (drain_all mb))

let test_mailbox_empty_drain () =
  let mb = Wsim.Mailbox.create () in
  let calls = ref 0 in
  Wsim.Mailbox.drain mb ~f:(fun ~time:_ ~payload:_ ~aux:_ -> incr calls);
  Alcotest.(check int) "empty drain calls nothing" 0 !calls;
  Wsim.Mailbox.push mb ~time:1.0 ~payload:1 ~aux:0.0;
  Wsim.Mailbox.clear mb;
  Wsim.Mailbox.drain mb ~f:(fun ~time:_ ~payload:_ ~aux:_ -> incr calls);
  Alcotest.(check int) "clear discards" 0 !calls

(* ---------- runs and result formatting ---------- *)

(* Same line shape as test_sim.ml's goldens, so the shards = 1 cases can
   reuse those literal strings. *)
let golden_line name (r : Wsim.Cluster.result) =
  Printf.sprintf
    "%s: completed=%d mean=%h ci=%h p50=%h p95=%h p99=%h load=%h att=%d \
     succ=%d stolen=%d reb=%d makespan=%h tail1=%h tail2=%h tail3=%h"
    name r.completed r.mean_sojourn r.sojourn_ci95 r.sojourn_p50 r.sojourn_p95
    r.sojourn_p99 r.mean_load r.steal_attempts r.steal_successes
    r.tasks_stolen r.rebalances r.makespan (r.tail 1) (r.tail 2) (r.tail 3)

let sharded_run ?pool ?(shards = 1) ?(latency = 0.5) ?(horizon = 2_000.0)
    ?(warmup = 200.0) ~seed cfg =
  let rng = Prob.Rng.create ~seed in
  let sim =
    Wsim.Shard.create ~rng { Wsim.Shard.cluster = cfg; shards; latency }
  in
  Wsim.Shard.run ?pool sim ~horizon ~warmup

let cluster_run ?(horizon = 2_000.0) ?(warmup = 200.0) ~seed cfg =
  let rng = Prob.Rng.create ~seed in
  let sim = Wsim.Cluster.create ~rng cfg in
  Wsim.Cluster.run sim ~horizon ~warmup

(* ---------- shards = 1 reproduces the Cluster goldens ---------- *)

(* The expected strings are the literal goldens from test_sim.ml: at
   shards = 1 the sharded entry runs Cluster's core on the caller's
   stream, so it reproduces them unchanged. *)

let test_golden_simple_one_shard () =
  let cfg =
    {
      Wsim.Cluster.default with
      n = 16;
      arrival_rate = 0.9;
      policy = Wsim.Policy.simple;
    }
  in
  Alcotest.(check string) "simple"
    "simple: completed=26069 mean=0x1.e33d686bb2e8fp+1 \
     ci=0x1.63ed8e1faae76p-5 p50=0x1.5539fe4ffe5c4p+1 \
     p95=0x1.6d1ac4f6e381ap+3 p99=0x1.10ff9a94037d3p+4 \
     load=0x1.b8009d715902ep+1 att=7946 succ=5005 stolen=5005 reb=0 \
     makespan=nan tail1=0x1.ce0765bbf9886p-1 tail2=0x1.512cb554bb92cp-1 \
     tail3=0x1.f032a7d8a0354p-2"
    (golden_line "simple" (sharded_run ~seed:42 cfg))

let test_golden_steal_half_one_shard () =
  let cfg =
    {
      Wsim.Cluster.default with
      n = 16;
      arrival_rate = 0.9;
      policy = Wsim.Policy.Steal_half { threshold = 2; choices = 1 };
    }
  in
  Alcotest.(check string) "steal-half"
    "steal-half: completed=26022 mean=0x1.8e4bccf4aeb29p+1 \
     ci=0x1.e7a2151ba832ap-6 p50=0x1.44de9b391052p+1 \
     p95=0x1.014478afeda01p+3 p99=0x1.6ff90af5841cdp+3 \
     load=0x1.676dbe9f4ba4ep+1 att=7544 succ=4720 stolen=7662 reb=0 \
     makespan=nan tail1=0x1.cda4834b169d8p-1 tail2=0x1.563334cf6de42p-1 \
     tail3=0x1.cf6a0592e0c39p-2"
    (golden_line "steal-half" (sharded_run ~seed:23 cfg))

let golden_n1024_expected =
  "n1024: completed=45176 mean=0x1.897d13b0d0a2p+1 \
   ci=0x1.9d926c91b41cfp-6 p50=0x1.29090b36c3797p+1 \
   p95=0x1.209e97d46e647p+3 p99=0x1.b43166fd05979p+3 \
   load=0x1.6c75bddc51ad1p+1 att=16781 succ=9569 stolen=9569 reb=0 \
   makespan=nan tail1=0x1.c500cb3e0b143p-1 tail2=0x1.3b9405d574632p-1 \
   tail3=0x1.b33293d927c98p-2"

let test_golden_n1024_one_shard scheduler () =
  let cfg =
    {
      Wsim.Cluster.default with
      n = 1024;
      arrival_rate = 0.9;
      policy = Wsim.Policy.simple;
      scheduler;
    }
  in
  Alcotest.(check string) "n1024" golden_n1024_expected
    (golden_line "n1024"
       (sharded_run ~seed:1024 ~horizon:60.0 ~warmup:10.0 cfg))

(* ---------- shards = 1 ≡ Cluster on random configs ---------- *)

let gen_shardable_policy =
  QCheck.Gen.(
    oneof
      [
        return Wsim.Policy.No_stealing;
        (let* threshold = int_range 2 6 in
         let* steal_count = int_range 1 (threshold - 1) in
         return (Wsim.Policy.On_empty { threshold; choices = 1; steal_count }));
        (let* threshold = int_range 2 6 in
         return (Wsim.Policy.Steal_half { threshold; choices = 1 }));
      ])

(* configurations several shards accept *)
let gen_supported_config =
  QCheck.Gen.(
    let* n = int_range 2 48 in
    let* lambda = float_range 0.2 0.95 in
    let* scheduler = oneofl [ Wsim.Cluster.Heap; Wsim.Cluster.Calendar ] in
    let* policy = gen_shardable_policy in
    let* seed = int_range 1 10_000 in
    return
      ( { Wsim.Cluster.default with n; arrival_rate = lambda; policy; scheduler },
        seed ))

(* every policy and option a single shard runs *)
let gen_any_config =
  QCheck.Gen.(
    let* n = int_range 2 24 in
    let* lambda = float_range 0.2 0.9 in
    let* scheduler = oneofl [ Wsim.Cluster.Heap; Wsim.Cluster.Calendar ] in
    let* service =
      oneofl
        [ Prob.Dist.Exponential; Prob.Dist.Deterministic; Prob.Dist.Erlang_stages 3 ]
    in
    let* policy =
      oneof
        [
          gen_shardable_policy;
          (let* threshold = int_range 2 6 in
           let* choices = int_range 2 3 in
           let* steal_count = int_range 1 (threshold - 1) in
           return (Wsim.Policy.On_empty { threshold; choices; steal_count }));
          (let* threshold = int_range 2 6 in
           let* choices = int_range 2 3 in
           return (Wsim.Policy.Steal_half { threshold; choices }));
          (let* begin_at = int_range 0 2 in
           let* extra = int_range 2 4 in
           return
             (Wsim.Policy.Preemptive { begin_at; offset = begin_at + extra }));
          (let* retry_rate = float_range 0.0 2.0 in
           let* threshold = int_range 2 4 in
           return (Wsim.Policy.Repeated { retry_rate; threshold }));
          (let* transfer_rate = float_range 0.3 2.0 in
           let* threshold = int_range 2 4 in
           let* stages = int_range 1 3 in
           return (Wsim.Policy.Transfer { transfer_rate; threshold; stages }));
          (let* rate =
             oneofl
               [
                 (fun l -> if l = 0 then 1.0 else 0.2);
                 (fun _ -> 0.5);
                 (fun l -> 0.1 *. float_of_int l);
               ]
           in
           return (Wsim.Policy.Rebalance { rate }));
          (let* threshold = int_range 2 4 in
           let* radius = int_range 1 4 in
           return (Wsim.Policy.Ring_steal { threshold; radius }));
        ]
    in
    let* spawn_rate = oneof [ return 0.0; float_range 0.05 0.3 ] in
    let* speeds =
      oneof
        [
          return None;
          map Option.some (array_size (return n) (float_range 0.5 1.5));
        ]
    in
    let* placement = int_range 1 3 in
    let* batch_mean = oneof [ return 1.0; float_range 1.0 2.5 ] in
    let* initial_load = int_range 0 4 in
    let* seed = int_range 1 10_000 in
    return
      ( {
          Wsim.Cluster.n;
          arrival_rate = lambda /. batch_mean;
          spawn_rate;
          service;
          speeds;
          policy;
          initial_load;
          placement;
          batch_mean;
          scheduler;
        },
        seed ))

let pp_config (cfg, seed) =
  Format.asprintf
    "n=%d lambda=%g spawn=%g service=%a speeds=%s policy=%a placement=%d \
     batch=%g initial=%d scheduler=%s seed=%d"
    cfg.Wsim.Cluster.n cfg.Wsim.Cluster.arrival_rate cfg.Wsim.Cluster.spawn_rate
    Prob.Dist.pp_service cfg.Wsim.Cluster.service
    (match cfg.Wsim.Cluster.speeds with
    | None -> "none"
    | Some sp ->
        String.concat "," (Array.to_list (Array.map string_of_float sp)))
    Wsim.Policy.pp cfg.Wsim.Cluster.policy cfg.Wsim.Cluster.placement
    cfg.Wsim.Cluster.batch_mean cfg.Wsim.Cluster.initial_load
    (match cfg.Wsim.Cluster.scheduler with
    | Wsim.Cluster.Heap -> "heap"
    | Wsim.Cluster.Calendar -> "calendar")
    seed

(* The two entry points must agree: a single shard draws from the
   caller's generator exactly as Cluster does. *)
let qcheck_one_shard_matches_cluster =
  QCheck.Test.make ~count:25 ~name:"shards=1 is Cluster draw-for-draw"
    (QCheck.make ~print:pp_config gen_any_config)
    (fun (cfg, seed) ->
      String.equal
        (golden_line "q" (cluster_run ~horizon:300.0 ~warmup:30.0 ~seed cfg))
        (golden_line "q" (sharded_run ~horizon:300.0 ~warmup:30.0 ~seed cfg)))

(* ---------- multi-shard determinism ---------- *)

(* Different shard counts are different (equally valid) samples of the
   model, so there is no cross-count golden; what the contract pins is
   that a fixed shard count is bit-identical across repeats and across
   pool sizes, and that n = 4096 at shards = 4 reproduces this exact
   hex line (captured from this implementation, guarding the
   cross-shard steal protocol against silent drift). *)

let n4096_config =
  {
    Wsim.Cluster.default with
    n = 4096;
    arrival_rate = 0.9;
    policy = Wsim.Policy.simple;
    scheduler = Wsim.Cluster.Calendar;
  }

let golden_n4096_shards4_expected =
  "n4096s4: completed=50198 mean=0x1.3dcd31fc3e2c6p+1 \
   ci=0x1.1413ec9426ad4p-6 p50=0x1.09ab0a530d451p+1 \
   p95=0x1.a696ea6a795d5p+2 p99=0x1.24593a9cbc647p+3 \
   load=0x1.2f6677db5111p+1 att=21267 succ=10256 stolen=10256 reb=0 \
   makespan=nan tail1=0x1.9fd80748dad36p-1 tail2=0x1.20529e94d7a8dp-1 \
   tail3=0x1.789bd50e0773ap-2"

let n4096_line pool =
  golden_line "n4096s4"
    (sharded_run ?pool ~shards:4 ~latency:0.5 ~seed:4096 ~horizon:20.0
       ~warmup:5.0 n4096_config)

let test_golden_n4096_four_shards () =
  Alcotest.(check string) "n4096 shards=4" golden_n4096_shards4_expected
    (n4096_line None)

let test_n4096_pool_size_invariance () =
  let pool = Parallel.Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check string) "domains=3 matches the golden"
        golden_n4096_shards4_expected
        (n4096_line (Some pool)))

let qcheck_fixed_shard_count_deterministic =
  QCheck.Test.make ~count:12
    ~name:"fixed shard count: bit-identical across repeats and pool sizes"
    (QCheck.make ~print:pp_config gen_supported_config)
    (fun (cfg, seed) ->
      (* shardable n for every count under test *)
      let cfg = { cfg with Wsim.Cluster.n = max cfg.Wsim.Cluster.n 8 } in
      let serial = Parallel.Pool.create ~domains:1 in
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown serial)
        (fun () ->
          List.for_all
            (fun shards ->
              let line pool =
                golden_line "q"
                  (sharded_run ?pool ~shards ~horizon:150.0 ~warmup:15.0 ~seed
                     cfg)
              in
              let first = line None in
              String.equal first (line None)
              && String.equal first (line (Some serial)))
            [ 1; 2; 4 ]))

let test_single_engine_entries_reject_shards () =
  let sim =
    Wsim.Cluster.create_sharded ~rng:(Prob.Rng.create ~seed:1) ~shards:2
      ~latency:0.5
      { n4096_config with Wsim.Cluster.n = 8; arrival_rate = 0.0 }
  in
  let rejects who f =
    Alcotest.check_raises who
      (Invalid_argument (who ^ ": needs a single-shard instance")) (fun () ->
        ignore (f ()))
  in
  rejects "Cluster.advance" (fun () -> Wsim.Cluster.advance sim ~until:1.0);
  rejects "Cluster.run_static" (fun () -> Wsim.Cluster.run_static sim);
  rejects "Cluster.run_observed" (fun () ->
      Wsim.Cluster.run_observed sim ~horizon:2.0 ~warmup:0.0 ~sample_every:1.0
        ~observe:(fun _ _ -> ()))

let () =
  Alcotest.run "shard"
    [
      ( "mailbox",
        [
          Alcotest.test_case "fifo order" `Quick test_mailbox_fifo;
          Alcotest.test_case "wrap-around" `Quick test_mailbox_wraparound;
          Alcotest.test_case "empty drain" `Quick test_mailbox_empty_drain;
        ] );
      ( "one shard is Cluster",
        [
          Alcotest.test_case "simple golden" `Quick
            test_golden_simple_one_shard;
          Alcotest.test_case "steal-half golden" `Quick
            test_golden_steal_half_one_shard;
          Alcotest.test_case "n1024 golden (heap)" `Quick
            (test_golden_n1024_one_shard Wsim.Cluster.Heap);
          Alcotest.test_case "n1024 golden (calendar)" `Quick
            (test_golden_n1024_one_shard Wsim.Cluster.Calendar);
          QCheck_alcotest.to_alcotest qcheck_one_shard_matches_cluster;
        ] );
      ( "multi-shard determinism",
        [
          Alcotest.test_case "n4096 shards=4 golden" `Quick
            test_golden_n4096_four_shards;
          Alcotest.test_case "pool-size invariance" `Quick
            test_n4096_pool_size_invariance;
          QCheck_alcotest.to_alcotest qcheck_fixed_shard_count_deterministic;
          Alcotest.test_case "single-engine entries reject shards" `Quick
            test_single_engine_entries_reject_shards;
        ] );
    ]
