(* sim-large: one single-threaded replica of the paper's base system at
   n = 131072 — λ = 0.9, simple stealing, the calendar queue — through
   Cluster.create and a Cluster run, as Runner.replicate does it.

   Every processor starts with 4 tasks: from there the mean-field
   trajectory is within 0.2 % of its fixed point by t = 30 (from an empty
   start a 40-unit horizon reads 2.80 against E[T] = 3.5414), so the
   measured window [25, horizon] reads the steady state and its mean
   sojourn can be checked against the fixed point. *)

open Wsim

let n = 131_072
let lambda = 0.9
let initial_load = 4
let warmup = 25.0

(* Simulated time after the warm-up, per second of --seconds. *)
let units_per_second = 0.75
let horizon ~seconds = warmup +. (units_per_second *. float_of_int seconds)

(* Wall time is sampled once per [window] of simulated time: each sample
   is one window's pace, the per-sample basis of p50_us and tail_us. *)
let window = 0.25
let tail_p = 0.9
let setups = 7

(* Largest relative gap between the run's mean sojourn and the fixed
   point accepted as correct: ten seeds at this size and horizon read
   within ±1.5 % (per-seed fluctuations of the system-wide load), so 3 %
   leaves room without admitting a transient or a broken simulator. *)
let sojourn_rtol = 0.03

let config ~n =
  {
    Cluster.default with
    n;
    arrival_rate = lambda;
    policy = Policy.simple;
    initial_load;
    scheduler = Cluster.Calendar;
  }

let fixed_point_sojourn () =
  let m = Meanfield.Simple_ws.model ~lambda ~dim:128 () in
  let fp = Meanfield.Drive.fixed_point ~tol:1e-12 m in
  Meanfield.Model.mean_time m fp.Meanfield.Drive.state

let sim_seed seed = Gen.Rng.int (Gen.rng ~seed "sim-large") 0x3FFF_FFFF

(* Cluster.create with an engine of our own (as Runner.replicate passes
   one) so the pending-event count can be read after the run. *)
let create ~seed cfg =
  let engine =
    Desim.Packed_engine.create ~capacity:(4 * cfg.Cluster.n) ~scheduler:cfg.Cluster.scheduler ()
  in
  (engine, Cluster.create ~engine ~rng:(Prob.Rng.create ~seed) cfg)

(* [setups] timed creations; the last instance is returned for the run. *)
let timed_creates ~seed cfg k =
  let rec go i acc =
    Gc.full_major ();
    let t0 = Util.now_ns () in
    let engine, sim = create ~seed cfg in
    let dt = Util.secs_since t0 in
    if i = k then (engine, sim, dt :: acc) else go (i + 1) (dt :: acc)
  in
  go 1 []

let check_sojourn tally (r : Cluster.result) =
  let reference = fixed_point_sojourn () in
  let gap = (r.Cluster.mean_sojourn -. reference) /. reference in
  tally.Check.attempted <- tally.Check.attempted + 1;
  if not (Float.abs gap <= sojourn_rtol) then
    Check.fail tally
      (Printf.sprintf "mean sojourn %.5f vs fixed point %.5f (%+.2f%%, limit %.1f%%)"
         r.Cluster.mean_sojourn reference (100.0 *. gap) (100.0 *. sojourn_rtol));
  gap

let e2e ~seed ~seconds =
  let tally = Check.tally () in
  let cfg = config ~n in
  let _engine, sim, creates = timed_creates ~seed:(sim_seed seed) cfg setups in
  let h = horizon ~seconds in
  let marks = Array.make (int_of_float (h /. window) + 2) 0 in
  let k = ref 0 in
  let t0 = Util.now_ns () in
  let r =
    Cluster.run_observed sim ~horizon:h ~warmup ~sample_every:window ~observe:(fun _ _ ->
        marks.(!k) <- Util.now_ns ();
        incr k)
  in
  let wall = Util.secs_since t0 in
  let events = Cluster.events_dispatched sim in
  let gap = check_sojourn tally r in
  let samples = Array.init (!k - 1) (fun i -> float_of_int (marks.(i + 1) - marks.(i)) *. 1e-3) in
  let sorted = Quantile.sorted_copy samples in
  if Quantile.beyond (Array.length sorted) tail_p < 10 then failwith "sim-large: too few windows for the tail";
  let metrics =
    [
      { Util.name = "setup_s"; unit_ = "s"; value = Util.median creates; basis = "" };
      { Util.name = "throughput"; unit_ = "1/s"; value = float_of_int events /. wall; basis = "" };
      { Util.name = "p50_us"; unit_ = "us"; value = Quantile.nearest_rank sorted 0.5; basis = "" };
      { Util.name = "tail_us"; unit_ = "us"; value = Quantile.nearest_rank sorted tail_p; basis = "" };
      { Util.name = "peak_rss_mb"; unit_ = "MB"; value = Util.peak_rss_mb "self"; basis = "" };
    ]
  in
  let details =
    [
      ("events", float_of_int events);
      ("run_s", wall);
      ("windows", float_of_int (Array.length samples));
      ("tail_percentile", tail_p);
      ("mean_sojourn", r.Cluster.mean_sojourn);
      ("sojourn_gap_pct", 100.0 *. gap);
      ("steal_success_ratio", Util.ratio r.Cluster.steal_successes r.Cluster.steal_attempts);
    ]
  in
  (tally, metrics, details)

(* ---- layer kernels ---- *)

(* One Calendar_queue.push plus one drop_root at a steady [pending]
   events. Times are scaled so the queue's initial bucket width already
   fits (one event per time unit): this times the steady-state hold, not
   the width adaptation a fresh simulator pays at start-up. *)
let hold_ns ~pending =
  let q = Desim.Calendar_queue.create ~capacity:pending () in
  let rng = Prob.Rng.create ~seed:7 in
  let mean = float_of_int pending in
  for _ = 1 to pending do
    Desim.Calendar_queue.push q ~time:(Prob.Rng.float rng *. mean) ~payload:0 ~aux:0.0
  done;
  let m = 1 lsl 20 in
  let incs = Array.init m (fun _ -> Prob.Dist.exponential rng ~rate:(1.0 /. mean)) in
  let hold i =
    let t = Desim.Calendar_queue.root_time q in
    Desim.Calendar_queue.drop_root q;
    Desim.Calendar_queue.push q ~time:(t +. incs.(i land (m - 1))) ~payload:0 ~aux:0.0
  in
  for i = 0 to m - 1 do hold i done;
  let t0 = Util.now_ns () in
  for i = 0 to m - 1 do hold i done;
  float_of_int (Util.now_ns () - t0) /. float_of_int m

let draw_ns draw =
  let m = 2_000_000 in
  let t0 = Util.now_ns () in
  for _ = 1 to m do draw () done;
  float_of_int (Util.now_ns () - t0) /. float_of_int m

(* Traced layers of one replica of size [n]: span-timed Cluster.create,
   then Cluster.advance in fixed windows of simulated time to the
   horizon; an untraced Cluster.run of the same seed first gives the
   event count the traced replica must repeat exactly, and the untraced
   wall time the overhead is taken against. *)
type layers = {
  result : Cluster.result;  (** Of the untraced replica. *)
  create_s : float;
  events : int;
  events_repeat : bool;
  ns_per_event : float;
  minor_words_per_event : float;
  steal_ratio : float;
  hold : float;
  exp_draw : float;
  int_draw : float;
  untraced_s : float;
  traced_s : float;
  spans : Spans.span array;
}

let layers ~seed ~n ~horizon ~warmup =
  let cfg = config ~n in
  Gc.full_major ();
  let _, sim = create ~seed cfg in
  let t0 = Util.now_ns () in
  let r = Cluster.run sim ~horizon ~warmup in
  let untraced_s = Util.secs_since t0 in
  let events = Cluster.events_dispatched sim in
  Gc.full_major ();
  let sp = Spans.create () in
  let engine, sim = Spans.with_span sp ~req:0 "sim.create" (fun () -> create ~seed cfg) in
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  let steps = int_of_float (Float.ceil horizon) in
  for i = 1 to steps do
    Spans.with_span sp ~req:i "sim.advance" (fun () ->
        Cluster.advance sim ~until:(Float.min horizon (float_of_int i)))
  done;
  let traced_s = Util.secs_since t0 in
  let words = Gc.minor_words () -. w0 in
  let traced_events = Cluster.events_dispatched sim in
  let pending = Desim.Packed_engine.pending engine in
  let spans = Spans.to_array sp in
  let rng = Prob.Rng.create ~seed in
  let sink = ref 0.0 in
  let exp_draw = draw_ns (fun () -> sink := !sink +. Prob.Dist.exponential rng ~rate:lambda) in
  let isink = ref 0 in
  let int_draw = draw_ns (fun () -> isink := !isink + Prob.Rng.int rng n) in
  {
    result = r;
    create_s = float_of_int (Spans.duration spans.(0)) *. 1e-9;
    events;
    events_repeat = traced_events = events;
    ns_per_event = traced_s *. 1e9 /. float_of_int traced_events;
    minor_words_per_event = words /. float_of_int traced_events;
    steal_ratio = Util.ratio r.Cluster.steal_successes r.Cluster.steal_attempts;
    hold = hold_ns ~pending;
    exp_draw = (if !sink < 0.0 then nan else exp_draw);
    int_draw = (if !isink < 0 then nan else int_draw);
    untraced_s;
    traced_s;
    spans;
  }

let layer_metrics l ~basis =
  List.map
    (fun (name, unit_, value) -> { Util.name; unit_; value; basis })
    [
      ("sim.create_s", "s", l.create_s);
      ("sim.events", "count", float_of_int l.events);
      ("sim.ns_per_event", "ns", l.ns_per_event);
      ("sim.minor_words_per_event", "words", l.minor_words_per_event);
      ("sim.steal_success_ratio", "ratio", l.steal_ratio);
      ("desim.hold_ns", "ns", l.hold);
      ("prob.exp_draw_ns", "ns", l.exp_draw);
      ("prob.int_draw_ns", "ns", l.int_draw);
    ]

let overhead l =
  {
    Util.name = "trace.overhead_pct";
    unit_ = "%";
    value = 100.0 *. (l.traced_s -. l.untraced_s) /. l.untraced_s;
    basis = Printf.sprintf "traced replica %.3f s vs untraced %.3f s" l.traced_s l.untraced_s;
  }

(* The small replica serve workloads' traced runs report for these
   layers, which their own traffic never reaches. *)
let probe () = layers ~seed:11 ~n:16_384 ~horizon:4.0 ~warmup:2.0

let traced ~seed ~seconds =
  let tally = Check.tally () in
  let l = layers ~seed:(sim_seed seed) ~n ~horizon:(horizon ~seconds) ~warmup in
  ignore (check_sojourn tally l.result);
  if not l.events_repeat then Check.fail tally "traced replica dispatched a different event count";
  (tally, l)
