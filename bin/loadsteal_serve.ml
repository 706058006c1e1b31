(* loadsteal-serve — the fixed-point prediction service.

   Subcommands:
     daemon   listen on a unix socket; each connection is a thread hosted
              on the pool domain with the fewest live connections
              (Serve.Conn's bounded loop: newline-delimited JSON in,
              newline-delimited JSON out), so concurrent clients' solves
              run in parallel and a single query is answered on the
              domain that hosts its connection; the same domains run
              batch solve fan-out
     replay   connect to a daemon, replay a deterministic Workload
              stream, measure latency quantiles (P²) and enforce
              hit-rate / residual floors — the CI smoke client *)

open Cmdliner

let default_socket = "/tmp/loadsteal-serve.sock"

(* ---------- daemon ---------- *)

(* A socket left by an earlier daemon is replaced; anything else at the
   path is someone's file, and the daemon refuses to start rather than
   delete it. *)
let claim_socket_path socket =
  match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket
  | _ -> failwith (Printf.sprintf "daemon: %s exists and is not a socket" socket)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run_daemon socket accept_n domains =
  (* Checked before the socket path is claimed, so a bad flag touches
     no file. *)
  if domains < 1 then invalid_arg "daemon: --domains must be >= 1";
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  claim_socket_path socket;
  let server = Serve.Server.create () in
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
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 64;
  let dc = Serve.Server.default_config in
  Printf.printf
    "loadsteal-serve: listening on %s (%d domains, %d shards, depth %d)\n%!"
    socket domains dc.Serve.Server.shards dc.Serve.Server.depth;
  (* Each connection is a thread hosted on the pool domain with the
     fewest live connections (Pool.host), not a pool task: Pool.map's
     help loop pops any queued task, so a handler serving a batch could
     pick up another connection's handler and block in its read until
     that client disconnects. Pool.shutdown returns once every hosted
     connection has ended, which is what the --accept N mode waits for
     before it exits. *)
  let conns = Serve.Conn.create ~pool server in
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
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(const run_daemon $ socket $ accept_n $ domains)

(* ---------- replay ---------- *)

let member_float key v =
  match Option.map Serve.Wire.to_float (Serve.Wire.member key v) with
  | Some (Some f) -> Some f
  | _ -> None

let run_replay socket n seed connections burst min_hit_rate max_residual
    json_path =
  if connections < 1 then invalid_arg "replay: --connections must be >= 1";
  let queries = Serve.Workload.stream ~seed ~burst_share:burst n in
  (* Round-robin deal across connections: a burst's consecutive
     same-family queries land on different lanes at roughly the same
     instant, so concurrent misses of one family race on the daemon's
     domains. *)
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
    List.iter
      (fun q ->
        let t_send = Monotonic_clock.now () in
        let response = send_recv chan (Serve.Workload.request_json q) in
        let dt_us =
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) t_send) /. 1e3
        in
        Mutex.protect lock (fun () ->
            Prob.P2_quantile.add p50 dt_us;
            Prob.P2_quantile.add p99 dt_us;
            check_response response))
      qs
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
  (* Forward the daemon's count of answered queries and of domains
     that answered any, so CI can check both without a second stats
     connection (the daemon may have exhausted --accept by then). *)
  let forwarded =
    List.filter_map
      (fun k ->
        Option.map
          (fun v -> (k, Serve.Wire.Num v))
          (member_float k stats))
      [ "served"; "serving_domains" ]
  in
  let report =
    Serve.Wire.Obj
      ([
        ("queries", Serve.Wire.Num (float_of_int n));
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
  let connections =
    Arg.(
      value & opt int 1
      & info [ "connections" ] ~docv:"C"
          ~doc:"Concurrent client connections; queries are dealt \
                round-robin across them.")
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
      const run_replay $ socket $ n $ seed $ connections $ burst
      $ min_hit_rate $ max_residual $ json)

let main_cmd =
  let doc = "Fixed-point prediction service for load-stealing models." in
  Cmd.group
    (Cmd.info "loadsteal_serve" ~version:"1.0.0" ~doc)
    [ daemon_cmd; replay_cmd ]

(* Bad flag values reach validators that raise Invalid_argument, and a
   daemon that cannot start raises Failure or, from the socket calls,
   Unix_error: report each as one line with cmdliner's "some error" exit
   code. Anything else is a bug and keeps cmdliner's internal-error
   report. *)
let () =
  match Cmd.eval' ~catch:false main_cmd with
  | code -> exit code
  | exception (Invalid_argument reason | Failure reason) ->
      Printf.eprintf "loadsteal_serve: %s\n%!" reason;
      exit Cmd.Exit.some_error
  | exception Unix.Unix_error (err, call, arg) ->
      Printf.eprintf "loadsteal_serve: %s: %s\n%!"
        (if String.equal arg "" then call else call ^ " " ^ arg)
        (Unix.error_message err);
      exit Cmd.Exit.some_error
  | exception e ->
      Printf.eprintf
        "loadsteal_serve: internal error, uncaught exception: %s\n%!"
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error
