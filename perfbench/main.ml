(* perfbench — the repository's end-to-end and per-layer benchmark.

     main.exe --workload serve-hit|serve-miss|serve-batch|sim-large
              --seed N --seconds S --trace 0|1
              [--daemon PATH] [--out DIR]

   Prints a report on stderr and, as the last line of stdout, one JSON
   object with the keys correct, attempted, failed and metrics: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. Exits 1 when any operation failed its check, 2 on bad
   arguments or when the benchmark cannot run. *)

open Perfbench

let workloads = [ "serve-hit"; "serve-miss"; "serve-batch"; "sim-large" ]

(* Per-layer metric names in report order; every traced run prints all
   of them. *)
let per_layer =
  [
    "transport.p50_us"; "wire.parse_us"; "wire.print_us"; "protocol.handle_us";
    "protocol.unattributed_us"; "families.resolve_us"; "families.build_us"; "server.hit_us";
    "server.interp_us"; "server.interp_rel_gap"; "cache.entries_per_family"; "server.hit_share";
    "server.interp_share"; "server.warm_share"; "server.cold_share"; "server.solve_us"; "drive.evals_per_miss";
    "drive.us_per_eval"; "model.deriv_ns"; "batch.solve_us"; "batch.columns_per_solve";
    "batch.evals_per_query"; "batch.anchor_share"; "batch.bridge_share";
    "gc.minor_words_per_query"; "gc.major_collections"; "sim.create_s"; "sim.events";
    "sim.ns_per_event"; "sim.minor_words_per_event"; "sim.steal_success_ratio"; "desim.hold_ns";
    "prob.exp_draw_ns"; "prob.int_draw_ns"; "trace.overhead_pct";
  ]

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--daemon PATH] [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let daemon = ref "_perfbench/build/default/bin/loadsteal_serve.exe" in
  let out = ref "_perfbench/run" in
  let int_arg name v = match int_of_string_opt v with Some i -> i | None -> usage (name ^ " needs an integer") in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); parse rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg "--seconds" v); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--daemon" :: v :: rest -> daemon := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ("unknown workload " ^ !workload);
  let seed = match !seed with Some s -> s | None -> usage "--seed is required" in
  let seconds = match !seconds with Some s when s >= 1 -> s | _ -> usage "--seconds must be >= 1" in
  let trace = match !trace with Some t -> t | None -> usage "--trace 0|1 is required" in
  if not (Sys.file_exists !daemon) then usage ("no daemon executable at " ^ !daemon);
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p !out;
  let env = { Serve_bench.exe = !daemon; dir = !out; domains = Domain.recommended_domain_count () } in
  (* [exit] runs the at_exit hook that stops any daemon still running. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  let diag = Diag.start () in
  let t0 = Util.now_ns () in
  let run () =
    match (!workload, trace) with
    | "sim-large", false -> Sim_bench.e2e ~seed ~seconds
    | "sim-large", true ->
        let tally, l = Sim_bench.traced ~seed ~seconds in
        let probe_tally, serve = Serve_bench.probe_layers env in
        Check.merge tally probe_tally;
        Spans.write_tsv (Filename.concat !out "spans-sim-large.tsv") l.Sim_bench.spans;
        ( tally,
          serve @ Sim_bench.layer_metrics l ~basis:"this run's replica" @ [ Sim_bench.overhead l ],
          [ ("events", float_of_int l.Sim_bench.events);
            ("mean_sojourn", l.Sim_bench.result.Wsim.Cluster.mean_sojourn) ] )
    | w, false -> Serve_bench.e2e env (Serve_bench.spec ~seed ~seconds w)
    | w, true ->
        let tally, serve, notes, spans = Serve_bench.traced env (Serve_bench.spec ~seed ~seconds w) in
        Spans.write_tsv (Filename.concat !out ("spans-" ^ w ^ ".tsv")) spans;
        let sim = Sim_bench.layer_metrics (Sim_bench.probe ()) ~basis:"probe: n = 16384 replica to t = 4" in
        (tally, serve @ sim, notes)
  in
  let tally, metrics, notes =
    try run ()
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 2
  in
  let elapsed = Util.secs_since t0 in
  let metrics =
    if trace then
      List.map
        (fun name ->
          match List.find_opt (fun (m : Util.metric) -> m.Util.name = name) metrics with
          | Some m -> m
          | None -> failwith ("per-layer metric not measured: " ^ name))
        per_layer
    else metrics
  in
  Printf.eprintf "perfbench %s seed %d seconds %d trace %d — %.1f s\n" !workload seed seconds
    (if trace then 1 else 0) elapsed;
  List.iter
    (fun (m : Util.metric) ->
      Printf.eprintf "  %-28s %14.6g %-6s %s\n" m.Util.name m.Util.value m.Util.unit_ m.Util.basis)
    metrics;
  List.iter (fun (k, v) -> Printf.eprintf "  . %-26s %14.6g\n" k v) (notes @ Diag.finish diag);
  Printf.eprintf "  operations: %d attempted, %d failed\n" tally.Check.attempted tally.Check.failed;
  List.iter (fun m -> Printf.eprintf "  FAILED: %s\n" m) (List.rev tally.Check.messages);
  print_endline
    (Util.result_line ~correct:(tally.Check.failed = 0) ~attempted:tally.Check.attempted
       ~failed:tally.Check.failed metrics);
  exit (if tally.Check.failed = 0 then 0 else 1)
