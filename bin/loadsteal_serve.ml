(* loadsteal-serve — the fixed-point prediction service.

   Subcommands:
     daemon   listen on a unix socket; each connection is a thread hosted
              on the pool domain with the fewest live connections
              (Serve.Conn's bounded loop: newline-delimited JSON in,
              newline-delimited JSON out), so concurrent clients' solves
              run in parallel; the same domains run batch solve fan-out
     replay   connect to a daemon, replay a deterministic Workload
              stream, measure latency quantiles (P²) and enforce
              hit-rate / residual floors — the CI smoke client *)

open Cmdliner

let default_socket = "/tmp/loadsteal-serve.sock"

(* ---------- daemon ---------- *)

let run_daemon socket accept_n domains shards depth tol interp_gap
    guard_factor window_ms =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let config =
    {
      Serve.Server.default_config with
      shards;
      depth;
      tol;
      interp_gap;
      guard_factor;
    }
  in
  let server = Serve.Server.create ~config () in
  (* Miss scheduler: single-query misses from concurrent connections
     coalesce into one lockstep solve per family, waiting up to the
     window for companions. Off (no scheduler at all) when the window
     is zero, so the single-connection replay path is untouched. *)
  let scheduler =
    if window_ms > 0.0 then
      Some (Serve.Scheduler.create ~window:(window_ms /. 1e3) server)
    else None
  in
  let pool = Parallel.Pool.create ~domains in
  (* Every domain that serves connections gets 1/N of the startup minor
     heap, so the daemon's young generation stays one default minor
     heap. Gc.set resizes only the calling domain's heap, and in OCaml
     5.1 a resize is a stop-the-world collection that also finishes the
     major cycle, so each domain resizes once, when it starts sharing
     the work: a worker when it first hosts a connection, the main
     domain when the first connection goes to a worker. Until then the
     main domain serves alone and its heap is the only young generation
     in use, so start-up and a one-connection client pay no resize. *)
  let minor_heap_words = (Gc.get ()).Gc.minor_heap_size / domains in
  let resized = Domain.DLS.new_key (fun () -> false) in
  let split_minor_heap () =
    if not (Domain.DLS.get resized) then begin
      Domain.DLS.set resized true;
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words }
    end
  in
  if Sys.file_exists socket then Sys.remove socket;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 64;
  Printf.printf
    "loadsteal-serve: listening on %s (%d domains, %d shards, depth %d)\n%!"
    socket domains shards depth;
  (* Each connection is a thread hosted on the pool domain with the
     fewest live connections (Pool.host), not a pool task: Pool.map's
     help loop pops any queued task, so a handler serving a batch could
     pick up another connection's handler and block in its read until
     that client disconnects. Pool.shutdown returns once every hosted
     connection has ended, which is what the --accept N mode waits for
     before it exits. *)
  let conns = Serve.Conn.create ?scheduler ~pool server in
  let rec accept_loop accepted =
    if accept_n > 0 && accepted >= accept_n then ()
    else begin
      match Unix.accept fd with
      | conn, _ ->
          let domain =
            Parallel.Pool.host pool (fun domain ->
                if domain > 0 then split_minor_heap ();
                Serve.Conn.serve conns ~domain conn)
          in
          if domain > 0 then split_minor_heap ();
          accept_loop (accepted + 1)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop accepted
    end
  in
  accept_loop 0;
  Parallel.Pool.shutdown pool;
  Unix.close fd;
  (try Sys.remove socket with Sys_error _ -> ());
  let s = Serve.Server.stats server in
  Printf.printf
    "loadsteal-serve: served %d (hit %d, interpolated %d, warm %d, cold %d)\n"
    (s.Serve.Server.hit + s.Serve.Server.interpolated + s.Serve.Server.warm
   + s.Serve.Server.cold)
    s.Serve.Server.hit s.Serve.Server.interpolated s.Serve.Server.warm
    s.Serve.Server.cold;
  0

let daemon_cmd =
  let doc = "Run the prediction daemon on a unix socket." in
  let socket =
    Arg.(
      value
      & opt string default_socket
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path.")
  in
  let accept_n =
    Arg.(
      value & opt int 0
      & info [ "accept" ] ~docv:"N"
          ~doc:"Exit after $(docv) connections have been served (0 = serve \
                forever).")
  in
  let domains =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domains that host connections (each new connection goes to \
             the one with the fewest live connections) and run batch \
             solve fan-out. Once more than one domain serves, each \
             serving domain gets 1/$(docv) of the startup minor heap. \
             Defaults to the machine's recommended domain count.")
  in
  let dc = Serve.Server.default_config in
  let shards =
    Arg.(
      value
      & opt int dc.Serve.Server.shards
      & info [ "shards" ] ~docv:"N" ~doc:"Cache stripes.")
  in
  let depth =
    Arg.(
      value
      & opt int dc.Serve.Server.depth
      & info [ "depth" ] ~docv:"N" ~doc:"Pinned truncation depth.")
  in
  let tol =
    Arg.(
      value
      & opt float dc.Serve.Server.tol
      & info [ "tol" ] ~docv:"TOL" ~doc:"Solver residual tolerance.")
  in
  let interp_gap =
    Arg.(
      value
      & opt float dc.Serve.Server.interp_gap
      & info [ "interp-gap" ] ~docv:"W"
          ~doc:"Maximum λ gap eligible for sub-grid interpolation.")
  in
  let guard =
    Arg.(
      value
      & opt float dc.Serve.Server.guard_factor
      & info [ "guard-factor" ] ~docv:"G"
          ~doc:"Interpolation residual guard: accept iff residual ≤ tol·G.")
  in
  let window =
    Arg.(
      value & opt float 0.0
      & info [ "window" ] ~docv:"MS"
          ~doc:
            "Miss-coalescing window in milliseconds: single-query misses \
             from concurrent connections wait up to $(docv) and solve as \
             one lockstep batch per family (0 = off).")
  in
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(
      const run_daemon $ socket $ accept_n $ domains $ shards $ depth $ tol
      $ interp_gap $ guard $ window)

(* ---------- replay ---------- *)

let rec split_at k xs =
  if k = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split_at (k - 1) rest in
        (x :: a, b)

let member_float key v =
  match Option.map Serve.Wire.to_float (Serve.Wire.member key v) with
  | Some (Some f) -> Some f
  | _ -> None

let run_replay socket n seed batch connections burst min_hit_rate max_residual
    json_path =
  if batch < 1 then invalid_arg "replay: --batch must be >= 1";
  if connections < 1 then invalid_arg "replay: --connections must be >= 1";
  let queries = Serve.Workload.stream ~seed ~burst_share:burst n in
  (* Round-robin deal across connections: a burst's consecutive
     same-family queries land on different lanes at roughly the same
     instant — exactly the concurrent miss train the daemon's
     coalescing window is built to batch. *)
  let lanes = Array.make connections [] in
  List.iteri
    (fun i q -> lanes.(i mod connections) <- q :: lanes.(i mod connections))
    queries;
  let lanes = Array.map List.rev lanes in
  (* Retry while the daemon comes up, so CI can background it without a
     racy sleep. POSIX leaves a socket in an unspecified state after a
     failed connect, so every attempt gets a fresh fd. *)
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        connect (tries - 1)
  in
  let send_recv (ic, oc) v =
    output_string oc (Serve.Wire.to_string v);
    output_char oc '\n';
    flush oc;
    Serve.Wire.of_string (input_line ic)
  in
  (* Latency estimators and counters are shared across lanes; all
     updates sit under [lock]. *)
  let lock = Mutex.create () in
  let p50 = Prob.P2_quantile.create ~p:0.5 in
  let p99 = Prob.P2_quantile.create ~p:0.99 in
  let errors = ref 0 in
  let violations = ref 0 in
  let max_seen = ref 0.0 in
  let check_response r =
    match Serve.Wire.member "ok" r with
    | Some (Serve.Wire.Bool true) -> (
        match member_float "residual" r with
        | Some res ->
            if res > !max_seen then max_seen := res;
            if res > max_residual then incr violations
        | None -> incr errors)
    | _ -> incr errors
  in
  let drive_lane chan qs =
    let rec drive = function
      | [] -> ()
      | qs ->
          let head, rest = split_at batch qs in
          let request =
            match head with
            | [ q ] when batch = 1 -> Serve.Workload.request_json q
            | _ -> Serve.Wire.Arr (List.map Serve.Workload.request_json head)
          in
          let t_send = Monotonic_clock.now () in
          let response = send_recv chan request in
          let dt_us =
            Int64.to_float (Int64.sub (Monotonic_clock.now ()) t_send) /. 1e3
          in
          Mutex.protect lock (fun () ->
              Prob.P2_quantile.add p50 dt_us;
              Prob.P2_quantile.add p99 dt_us;
              match response with
              | Serve.Wire.Arr rs -> List.iter check_response rs
              | r -> check_response r);
          drive rest
    in
    drive qs
  in
  let t0 = Monotonic_clock.now () in
  (* Lane 0 runs on this thread and keeps its connection open for the
     final stats request; the other lanes get their own threads and
     connections. *)
  let fd0 = connect 100 in
  let chan0 = (Unix.in_channel_of_descr fd0, Unix.out_channel_of_descr fd0) in
  let others =
    Array.to_list
      (Array.init
         (connections - 1)
         (fun i ->
           Thread.create
             (fun qs ->
               let fd = connect 100 in
               Fun.protect
                 ~finally:(fun () ->
                   try Unix.close fd with Unix.Unix_error _ -> ())
                 (fun () ->
                   drive_lane
                     (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
                     qs))
             lanes.(i + 1)))
  in
  drive_lane chan0 lanes.(0);
  List.iter Thread.join others;
  let wall =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
  in
  let stats =
    send_recv chan0 (Serve.Wire.Obj [ ("op", Serve.Wire.Str "stats") ])
  in
  Unix.close fd0;
  let hit_rate = Option.value ~default:0.0 (member_float "hit_rate" stats) in
  let evals_per_miss =
    Option.value ~default:0.0 (member_float "evals_per_miss" stats)
  in
  (* Forward the daemon-side batching counters so CI can assert the
     coalesced path actually ran without a second stats connection
     (the daemon may have exhausted --accept by then). *)
  let forwarded =
    List.filter_map
      (fun k ->
        Option.map
          (fun v -> (k, Serve.Wire.Num v))
          (member_float k stats))
      [
        "batched_solves"; "batched_columns"; "sched_misses"; "sched_groups";
        "sched_coalesced"; "sched_shared"; "serving_domains";
      ]
  in
  let report =
    Serve.Wire.Obj
      ([
        ("queries", Serve.Wire.Num (float_of_int n));
        ("batch", Serve.Wire.Num (float_of_int batch));
        ("connections", Serve.Wire.Num (float_of_int connections));
        ("burst", Serve.Wire.Num burst);
        ("wall_seconds", Serve.Wire.Num wall);
        ( "queries_per_sec",
          Serve.Wire.Num (if wall > 0.0 then float_of_int n /. wall else 0.0)
        );
        ("p50_us", Serve.Wire.Num (Prob.P2_quantile.quantile p50));
        ("p99_us", Serve.Wire.Num (Prob.P2_quantile.quantile p99));
        ("hit_rate", Serve.Wire.Num hit_rate);
        ("evals_per_miss", Serve.Wire.Num evals_per_miss);
        ("max_residual_seen", Serve.Wire.Num !max_seen);
        ("residual_violations", Serve.Wire.Num (float_of_int !violations));
        ("errors", Serve.Wire.Num (float_of_int !errors));
      ]
      @ forwarded)
  in
  let text = Serve.Wire.to_string report in
  print_endline text;
  (match json_path with
  | None -> ()
  | Some path ->
      let ch = open_out path in
      output_string ch text;
      output_char ch '\n';
      close_out ch);
  if !errors > 0 then begin
    Printf.eprintf "replay: %d error responses\n" !errors;
    1
  end
  else if !violations > 0 then begin
    Printf.eprintf "replay: %d responses above --max-residual %g\n"
      !violations max_residual;
    1
  end
  else if hit_rate < min_hit_rate then begin
    Printf.eprintf "replay: hit rate %.3f below floor %.3f\n" hit_rate
      min_hit_rate;
    1
  end
  else 0

let replay_cmd =
  let doc = "Replay a deterministic query stream against a daemon." in
  let socket =
    Arg.(
      value
      & opt string default_socket
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path.")
  in
  let n =
    Arg.(
      value & opt int 1000
      & info [ "n"; "queries" ] ~docv:"N" ~doc:"Number of queries to replay.")
  in
  let seed =
    Arg.(
      value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Stream seed.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"B"
          ~doc:"Queries per request (1 = single-query objects; >1 = array \
                batches). Latency quantiles are per request either way.")
  in
  let connections =
    Arg.(
      value & opt int 1
      & info [ "connections" ] ~docv:"C"
          ~doc:"Concurrent client connections; queries are dealt \
                round-robin across them. With the daemon's $(b,--window) \
                this exercises cross-connection miss coalescing.")
  in
  let burst =
    Arg.(
      value & opt float 0.0
      & info [ "burst" ] ~docv:"SHARE"
          ~doc:"Probability of following a query with a same-model λ-scan \
                burst (see Workload.stream). 0 keeps the historical \
                stream byte-identical.")
  in
  let min_hit_rate =
    Arg.(
      value & opt float 0.0
      & info [ "min-hit-rate" ] ~docv:"R"
          ~doc:"Exit non-zero unless the daemon's final hit rate is ≥ \
                $(docv).")
  in
  let max_residual =
    Arg.(
      value & opt float 1e-7
      & info [ "max-residual" ] ~docv:"TOL"
          ~doc:"Exit non-zero if any response's certified residual exceeds \
                $(docv).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Write the report as JSON.")
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run_replay $ socket $ n $ seed $ batch $ connections $ burst
      $ min_hit_rate $ max_residual $ json)

let main_cmd =
  let doc = "Fixed-point prediction service for load-stealing models." in
  Cmd.group
    (Cmd.info "loadsteal_serve" ~version:"1.0.0" ~doc)
    [ daemon_cmd; replay_cmd ]

let () = exit (Cmd.eval' main_cmd)
