(* serve-hit, serve-miss and serve-batch: the release daemon driven over
   its unix socket.

   The daemon runs with --domains equal to the machine's domain count
   and every other flag at its default (no miss-coalescing window). Each
   run sends a fixed number of queries: [rate] per second of --seconds,
   sized on a 2-vCPU machine. The end-to-end run drives the daemon by a
   closed loop on 2 connections; the traced run sends the same requests
   over one connection, one at a time, then replays them in-process (see
   Inproc). *)

type spec = {
  name : string;
  warmup : Gen.request list;  (** Sent in order over one connection during set-up. *)
  measured : Gen.request array;
  setups : int;  (** Daemon starts per run; setup_s is their median. *)
  tail_p : float;  (** The fixed percentile tail_us reports. *)
  ref_keys : int;  (** Keys compared with an in-process reference solve. *)
}

let rate = function
  | "serve-hit" -> 1650
  | "serve-miss" -> 110
  | "serve-batch" -> 20
  | w -> invalid_arg w

let spec ~seed ~seconds name =
  let rng = Gen.rng ~seed name in
  let n = rate name * seconds in
  match name with
  | "serve-hit" ->
      { name; warmup = Gen.hit_warmup (); measured = Gen.hit_stream rng n; setups = 5;
        tail_p = 0.99; ref_keys = 24 }
  | "serve-miss" ->
      (* p90: above it the solve times climb steeply (in-process, one run:
         p90 5.6 ms, p95 11 ms, p99 119 ms), and p95 and p99 moved 17-26 %
         between runs *)
      { name; warmup = []; measured = Gen.miss_stream rng n; setups = 25; tail_p = 0.9;
        ref_keys = 16 }
  | "serve-batch" ->
      { name; warmup = []; measured = Gen.batch_stream rng n; setups = 25; tail_p = 0.9;
        ref_keys = 16 }
  | w -> invalid_arg w

type env = { exe : string; dir : string; domains : int }

let stats_line = {|{"op":"stats"}|}

(* The daemon's counters that must repeat exactly: after identical
   set-ups, and against an in-process pass over the same requests.
   miss_evals is not a stats field; evals_per_miss × misses gives it
   back exactly. *)
let warm_counts stats =
  let f k = match Json.num k stats with Some v -> v | None -> nan in
  let misses = f "warm" +. f "cold" in
  [
    ("hit", f "hit"); ("interpolated", f "interpolated"); ("warm", f "warm");
    ("cold", f "cold"); ("miss_evals", Float.round (f "evals_per_miss" *. misses));
    ("cache_entries", f "cache_entries");
  ]

(* Start a daemon and wait for its first ping answer, then run the
   warm-up; the returned seconds cover both. *)
let start env w tally =
  let socket = Filename.concat env.dir "d.sock" in
  let t0 = Util.now_ns () in
  let d = Daemon.spawn ~exe:env.exe ~socket ~domains:env.domains ~log:(Filename.concat env.dir "daemon.log") in
  let c = Daemon.connect d ~timeout_s:60.0 in
  let pong = Daemon.request c {|{"op":"ping"}|} in
  let warm = List.map (fun (r : Gen.request) -> (r, Daemon.request c r.Gen.line)) w.warmup in
  let dt = Util.secs_since t0 in
  (match Json.parse pong with
  | v when Json.member "ok" v = Some (Json.Bool true) -> ()
  | _ | (exception Json.Error _) -> Check.fail tally ("bad ping answer: " ^ pong));
  List.iter (fun (r, line) -> ignore (Check.record tally r line)) warm;
  let stats = Json.parse (Daemon.request c stats_line) in
  (d, c, dt, stats)

let queries (reqs : Gen.request array) =
  Array.fold_left (fun acc (r : Gen.request) -> acc + List.length r.Gen.queries) 0 reqs

let daemon_details stats =
  List.filter_map
    (fun k -> Option.map (fun v -> ("daemon." ^ k, v)) (Json.num k stats))
    [ "served"; "hit"; "interpolated"; "warm"; "cold"; "evals_per_miss"; "batched_solves";
      "batched_columns"; "cache_entries"; "cache_families" ]

(* Set up [w.setups] times, keep the last daemon, run the measured phase
   on it over 2 connections and check every answer. *)
let e2e env w =
  let tally = Check.tally () in
  let rec setups i acc =
    let d, c, dt, stats = start env w tally in
    if i = w.setups then (d, c, List.rev ((dt, stats) :: acc))
    else begin
      Daemon.close c;
      Daemon.stop d;
      setups (i + 1) ((dt, stats) :: acc)
    end
  in
  let d, c0, ss = setups 1 [] in
  (match List.map (fun (_, st) -> warm_counts st) ss with
  | first :: rest when List.exists (fun c -> c <> first) rest ->
      Check.fail tally "set-up counters differ between identical set-ups"
  | _ -> ());
  let c1 = Daemon.connect d ~timeout_s:10.0 in
  let loop = Daemon.closed_loop [| c0; c1 |] (Array.map (fun (r : Gen.request) -> r.Gen.line) w.measured) in
  let final_stats = Json.parse (Daemon.request c0 stats_line) in
  let rss = Daemon.peak_rss_mb d in
  Daemon.close c0;
  Daemon.close c1;
  Daemon.stop d;
  let answered =
    List.concat (Array.to_list (Array.mapi (fun i r -> Check.record tally r loop.Daemon.responses.(i)) w.measured))
  in
  ignore (Check.references tally answered ~k:w.ref_keys);
  let sorted = Quantile.sorted_copy loop.Daemon.latency_us in
  if Quantile.beyond (Array.length sorted) w.tail_p < 10 then
    failwith (w.name ^ ": too few requests for the tail percentile");
  let metrics =
    [
      { Util.name = "setup_s"; unit_ = "s"; value = Util.median (List.map fst ss); basis = "" };
      { Util.name = "throughput"; unit_ = "1/s"; value = float_of_int (queries w.measured) /. loop.Daemon.wall_s; basis = "" };
      { Util.name = "p50_us"; unit_ = "us"; value = Quantile.nearest_rank sorted 0.5; basis = "" };
      { Util.name = "tail_us"; unit_ = "us"; value = Quantile.nearest_rank sorted w.tail_p; basis = "" };
      { Util.name = "peak_rss_mb"; unit_ = "MB"; value = rss; basis = "" };
    ]
  in
  let details =
    [
      ("requests", float_of_int (Array.length w.measured));
      ("queries", float_of_int (queries w.measured));
      ("measured_s", loop.Daemon.wall_s);
      ("tail_percentile", w.tail_p);
    ]
    @ List.map (fun (k, v) -> ("warmup." ^ k, v)) (warm_counts (snd (List.hd ss)))
    @ daemon_details final_stats
  in
  (tally, metrics, details)

(* ---- traced run ---- *)

(* A small fixed script for the serve layers a workload's own traffic
   never reaches: the simple family cached on the hit grid and on a dense
   ladder over [0.60, 0.70] (0.002 apart, where the interpolation guard
   passes), hits on the grid, midpoints of the ladder, and two scans each
   for a hand-batched and a bridged family. *)
let probe_requests () =
  let simple = { Gen.model = "simple"; params = [] } in
  let threshold = { Gen.model = "threshold"; params = [] } in
  let grid = Gen.hit_grid in
  let q fam lam = Gen.single { Gen.fam; lam } in
  let scan fam lo = Gen.scan (List.init 8 (fun j -> { Gen.fam; lam = lo + (300 * j) })) in
  Array.concat
    [
      Array.map (q simple) grid;
      Array.init 51 (fun i -> q simple (60_000 + (200 * i)));
      Array.init 200 (fun i -> q simple grid.(i * 7 mod 24));
      Array.init 50 (fun i -> q simple (60_100 + (200 * i)));
      [| scan simple 20_000; scan threshold 20_000; scan simple 30_000; scan threshold 30_000 |];
    ]

(* The probe script as a spec of its own: every traced run measures it
   like a workload, for the layers the workload's traffic never reaches. *)
let probe_spec () =
  { name = "serve-probe"; warmup = []; measured = probe_requests (); setups = 1; tail_p = 0.95; ref_keys = 8 }

let mean_us tbl name =
  match Hashtbl.find_opt tbl name with
  | None | Some [] -> None
  | Some xs -> Some (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) /. 1e3, List.length xs)

(* A layer's value and its basis; [None] for a layer the workload's
   traffic never reached. *)
type layer = string * string * (float * string) option

(* Serve-layer metrics of one decomposed replay. *)
let serve_layers (d : Inproc.decomposed) deriv_ns interp_gaps : layer list =
  let tbl = Spans.by_name d.Inproc.d_spans in
  let c = d.Inproc.d_counts in
  let served = c.Inproc.hit + c.Inproc.interpolated + c.Inproc.warm + c.Inproc.cold in
  let misses = c.Inproc.warm + c.Inproc.cold in
  let time name span =
    (name, "us", Option.map (fun (v, k) -> (v, Printf.sprintf "mean self time of %d %s calls" k span)) (mean_us tbl span))
  in
  let share name k base what =
    (name, "ratio", if base = 0 then None else Some (Util.ratio k base, Printf.sprintf "%d / %d %s" k base what))
  in
  let solve_total =
    match Hashtbl.find_opt tbl "server.solve_group" with
    | Some xs -> List.fold_left ( +. ) 0.0 xs /. 1e3
    | None -> 0.0
  in
  [
    time "families.resolve_us" "families.resolve";
    time "families.build_us" "families.build";
    time "server.hit_us" "server.try_fast:hit";
    time "server.interp_us" "server.try_fast:interp";
    ( "server.interp_rel_gap", "ratio",
      match interp_gaps with
      | [] -> None
      | gs ->
          Some (List.fold_left Float.max 0.0 gs,
                Printf.sprintf "largest |mean_time - reference| / reference over the %d interpolated keys the socket pass's check sampled"
                  (List.length gs)) );
    ( "cache.entries_per_family", "count",
      if c.Inproc.families = 0 then None
      else Some (Util.ratio c.Inproc.entries c.Inproc.families,
                 Printf.sprintf "%d entries / %d families" c.Inproc.entries c.Inproc.families) );
    share "server.hit_share" c.Inproc.hit served "served";
    share "server.interp_share" c.Inproc.interpolated served "served";
    share "server.warm_share" c.Inproc.warm served "served";
    share "server.cold_share" c.Inproc.cold served "served";
    time "server.solve_us" "server.solve_group";
    ( "drive.evals_per_miss", "count",
      if misses = 0 then None
      else Some (Util.ratio c.Inproc.miss_evals misses, Printf.sprintf "%d evals / %d misses" c.Inproc.miss_evals misses) );
    ( "drive.us_per_eval", "us",
      if d.Inproc.singleton_evals = 0 then None
      else Some (solve_total /. float_of_int d.Inproc.singleton_evals,
                 Printf.sprintf "%.0f us of singleton solves / %d evals" solve_total d.Inproc.singleton_evals) );
    ("model.deriv_ns", "ns", Some (deriv_ns, "mean over the replay's families of one deriv call at λ = 0.9"));
    time "batch.solve_us" "batch.solve_group";
    ( "batch.columns_per_solve", "count",
      if c.Inproc.batched_solves = 0 then None
      else Some (Util.ratio c.Inproc.batched_columns c.Inproc.batched_solves,
                 Printf.sprintf "%d columns / %d lockstep solves" c.Inproc.batched_columns c.Inproc.batched_solves) );
    ( "batch.evals_per_query", "count",
      if d.Inproc.batch_columns = 0 then None
      else Some (Util.ratio c.Inproc.miss_evals d.Inproc.batch_columns,
                 Printf.sprintf "%d evals / %d batch queries" c.Inproc.miss_evals d.Inproc.batch_columns) );
    share "batch.anchor_share" d.Inproc.anchor_scans d.Inproc.batch_requests "scans";
    share "batch.bridge_share" (d.Inproc.batch_columns - d.Inproc.hand_columns) d.Inproc.batch_columns "batch columns";
  ]

(* The daemon's counters in [warm_counts] form, from an in-process
   replay. *)
let replay_counts (c : Inproc.counts) =
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [ ("hit", c.Inproc.hit); ("interpolated", c.Inproc.interpolated); ("warm", c.Inproc.warm);
      ("cold", c.Inproc.cold); ("miss_evals", c.Inproc.miss_evals); ("cache_entries", c.Inproc.entries) ]

(* One spec's traced measurement. A fresh daemon takes the warm-up and
   the measured requests over one connection, one request in flight, so
   it serves them in the order the in-process passes do and a round trip
   holds no wait for another connection's request. The in-process passes
   follow, beside a pool with the daemon's idle worker domains: an idle
   domain joins every stop-the-world minor collection, so passes without
   them would run faster. *)
let measure env w =
  let tally = Check.tally () in
  let requests = Array.append (Array.of_list w.warmup) w.measured in
  let nwarm = List.length w.warmup and nmeasured = Array.length w.measured in
  let d, c, _, _ = start env w tally in
  let loop = Daemon.closed_loop [| c |] (Array.map (fun (r : Gen.request) -> r.Gen.line) w.measured) in
  let final_stats = Json.parse (Daemon.request c stats_line) in
  Daemon.close c;
  Daemon.stop d;
  let answered =
    List.concat (Array.to_list (Array.mapi (fun i r -> Check.record tally r loop.Daemon.responses.(i)) w.measured))
  in
  let interp_gaps = Check.references tally answered ~k:w.ref_keys in
  let pool = Parallel.Pool.create ~domains:env.domains in
  let l = Inproc.lockstep pool requests in
  Parallel.Pool.shutdown pool;
  (* Each pass serves the same requests in the same order from an empty
     cache, so every counter must repeat exactly. *)
  let repeat what same =
    tally.Check.attempted <- tally.Check.attempted + 1;
    if not same then Check.fail tally (what ^ " counted differently from the traced Protocol pass")
  in
  let t_counts = l.Inproc.t_counts and dp = l.Inproc.d in
  repeat "the daemon" (warm_counts final_stats = replay_counts t_counts);
  repeat "the untraced pass" (l.Inproc.u_counts = t_counts);
  repeat "the decomposed pass" (dp.Inproc.d_counts = t_counts);
  (* In-process cost per measured request: parse + handle + print. *)
  let tt = Spans.by_name l.Inproc.spans in
  let per_req = Array.make (Array.length requests) 0.0 in
  let handle_total = ref 0.0 in
  Array.iter
    (fun (s : Spans.span) ->
      if s.Spans.parent >= 0 then begin
        let dur = float_of_int (Spans.duration s) in
        per_req.(s.Spans.req) <- per_req.(s.Spans.req) +. dur;
        if s.Spans.name = "protocol.handle_value" then handle_total := !handle_total +. dur
      end)
    l.Inproc.spans;
  let socket_p50 = Quantile.nearest_rank (Quantile.sorted_copy loop.Daemon.latency_us) 0.5 in
  let inproc_p50 =
    Quantile.nearest_rank (Quantile.sorted_copy (Array.map (fun ns -> ns /. 1e3) (Array.sub per_req nwarm nmeasured))) 0.5
  in
  let dt = Spans.by_name dp.Inproc.d_spans in
  let total name = List.fold_left ( +. ) 0.0 (Option.value ~default:[] (Hashtbl.find_opt dt name)) in
  let attributed =
    List.fold_left ( +. ) 0.0
      (List.map total
         [ "families.resolve"; "families.build"; "server.try_fast:hit"; "server.try_fast:interp";
           "server.try_fast:miss"; "server.try_fast:other"; "server.solve_group"; "batch.solve_group" ])
  in
  let nreq = float_of_int (Array.length requests) in
  let t_mean name =
    let v, k = Option.get (mean_us tt name) in
    Some (v, Printf.sprintf "mean of %d %s calls" k name)
  in
  let untraced_s = l.Inproc.untraced_s and traced_s = l.Inproc.traced_s in
  let nq = float_of_int (queries requests) in
  let layers =
    [
      ( "transport.p50_us", "us",
        Some (socket_p50 -. inproc_p50,
              Printf.sprintf "one-connection socket p50 %.1f us - in-process parse+handle+print p50 %.1f us, %d requests"
                socket_p50 inproc_p50 nmeasured) );
      ("wire.parse_us", "us", t_mean "wire.of_string");
      ("wire.print_us", "us", t_mean "wire.to_string");
      ("protocol.handle_us", "us", t_mean "protocol.handle_value");
      ( "protocol.unattributed_us", "us",
        Some ((!handle_total -. attributed) /. nreq /. 1e3,
              Printf.sprintf "(%.0f us in handle_value - %.0f us in the calls it composes) / %.0f requests"
                (!handle_total /. 1e3) (attributed /. 1e3) nreq) );
    ]
    @ serve_layers dp (Inproc.deriv_ns requests) interp_gaps
    @ [
        ( "gc.minor_words_per_query", "words",
          Some (l.Inproc.minor_words /. nq,
                Printf.sprintf "%.0f minor words / %.0f queries, traced protocol pass" l.Inproc.minor_words nq) );
        ( "gc.major_collections", "count",
          Some (float_of_int l.Inproc.major_collections, "in the benchmark process over the three in-process passes") );
        ( "trace.overhead_pct", "%",
          Some (100.0 *. (traced_s -. untraced_s) /. untraced_s,
                Printf.sprintf "protocol pass with spans %.3f s vs untraced Protocol.handle_line %.3f s, in lockstep"
                  traced_s untraced_s) );
      ]
  in
  let notes =
    [ ("untraced_pass_s", untraced_s); ("protocol_pass_s", traced_s); ("socket_p50_us", socket_p50) ]
    @ List.map (fun (k, v) -> ("replay." ^ k, float_of_int v)) (Inproc.counts_fields t_counts)
    @ daemon_details final_stats
  in
  (tally, layers, notes, dp.Inproc.d_spans)

let probe_metric (name, unit_, v) =
  match v with
  | Some (value, basis) -> { Util.name; unit_; value; basis = "probe: " ^ basis }
  | None -> failwith ("the probe does not reach " ^ name)

(* Layer values from the workload where its traffic reached the layer,
   otherwise from the probe, marked as such. *)
let prefer (own : layer list) (probe : layer list) =
  List.map2
    (fun (name, unit_, v) pl ->
      match v with Some (value, basis) -> { Util.name; unit_; value; basis } | None -> probe_metric pl)
    own probe

let traced env w =
  let tally, own, notes, spans = measure env w in
  let probe_tally, probe, _, _ = measure env (probe_spec ()) in
  Check.merge tally probe_tally;
  (tally, prefer own probe, notes, spans)

(* Every serve layer measured on the probe alone, for a workload that
   sends no serve traffic; the tracing overhead is the caller's own. *)
let probe_layers env =
  let tally, probe, _, _ = measure env (probe_spec ()) in
  (tally, List.map probe_metric (List.filter (fun (name, _, _) -> name <> "trace.overhead_pct") probe))
