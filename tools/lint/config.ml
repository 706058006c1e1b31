(* Repo-specific policy for loadsteal_lint: which directories are
   scanned, which files may read clocks, which libraries run inside the
   domain pool, and whole-file exemptions with their justifications.

   Paths are relative to the repository root, with '/' separators; an
   entry ending in '/' matches everything under that directory. *)

let scan_dirs = [ "lib"; "bin"; "bench"; "test"; "tools" ]

(* Rule identifiers, as written in diagnostics and in suppression
   comments: [(* lint: allow <rule>: <justification> *)] on the
   offending line or alone on the line above it. *)
let rule_determinism = "determinism"
let rule_float_eq = "float-eq"
let rule_domain_safety = "domain-safety"
let rule_missing_mli = "missing-mli"
let rule_parse_error = "parse-error"

(* Typed rules (cmt-based; see typed_engine.ml). [rule_float_eq] is
   shared between the syntactic and the typed pass: same invariant, two
   detectors, one suppression comment. *)
let rule_zero_alloc = "zero-alloc"
let rule_spsc = "spsc-ownership"

(* Meta rule: a suppression comment that names a known rule but carries
   no justification text after the rule id. *)
let rule_suppression = "suppression"

let all_rules =
  [
    rule_determinism;
    rule_float_eq;
    rule_domain_safety;
    rule_missing_mli;
    rule_zero_alloc;
    rule_spsc;
  ]

(* Every rule id a suppression comment may legitimately name. Markers
   with an unknown rule token are ignored (they are prose, like the
   [<rule>] placeholder in doc comments), not suppressions. *)
let known_rules = rule_parse_error :: rule_suppression :: all_rules

(* R1: clock reads allowed here — benchmarks and the wall-clock ablation
   exist to measure time; everything else must stay clock-free so tables
   depend only on inputs and seeds. *)
let timing_whitelist =
  [ "bench/"; "lib/experiments/exp_ablation.ml"; "bin/loadsteal_serve.ml" ]

(* R3 scope: libraries whose code runs inside Parallel.Pool workers.
   Top-level mutable state here is shared across domains (lib/serve's
   shared state is mutex-striped, the shape R3 checks lock discipline
   for instead of banning). *)
let parallel_libs =
  [ "lib/core/"; "lib/sim/"; "lib/experiments/"; "lib/serve/" ]

(* R4 scope: every .ml under these roots needs a sibling .mli. *)
let mli_required = [ "lib/" ]

(* (rule, path prefix, justification) whole-file exemptions. Prefer the
   inline suppression comment for single lines; list a file here only
   when the rule is structurally inapplicable to it. *)
let file_whitelist =
  [
    ( rule_domain_safety,
      "lib/sim/cluster.ml",
      "shard-owned state: each Cluster.t is built and read by one pool \
       task, its Bigarray lanes are partitioned by shard index, every \
       round task touches only its own shard's slice, and the pool \
       barrier between rounds publishes cross-shard mailboxes" );
    ( rule_domain_safety,
      "lib/sim/task_queues.ml",
      "one instance per shard, mutated only by that shard's events" );
    ( rule_domain_safety,
      "lib/sim/mailbox.ml",
      "single-producer/single-consumer per round: each (src, dst) \
       mailbox is written by one shard per phase, with the pool barrier \
       as the happens-before edge" );
  ]

(* ---------- typed rules (R5 / R6) ---------- *)

(* R5 roots: the hot-path functions that must never reach an allocation
   point, named [Module.function] where Module is the innermost module
   (file name for top-level bindings). Every root must resolve to a
   function in the scanned cmt set — a stale name is itself an error,
   so renames cannot silently drop coverage. *)
let zero_alloc_roots =
  [
    (* Desim.Packed_heap: binary-heap scheduler *)
    "Packed_heap.push";
    "Packed_heap.drop_root";
    "Packed_heap.root_time";
    "Packed_heap.root_payload";
    "Packed_heap.root_aux";
    (* Desim.Packed_engine: dispatch/advance *)
    "Packed_engine.schedule";
    "Packed_engine.schedule_after";
    "Packed_engine.next";
    "Packed_engine.run";
    "Packed_engine.advance_until";
    (* Desim.Calendar_queue: dequeue path *)
    "Calendar_queue.push";
    "Calendar_queue.drop_root";
    "Calendar_queue.root_time";
    "Calendar_queue.root_payload";
    "Calendar_queue.root_aux";
    (* Wsim.Cluster: per-event step, at any shard count *)
    "Cluster.handle";
    (* Wsim.Mailbox: SPSC hot ops *)
    "Mailbox.push";
    "Mailbox.drain";
    (* Numerics.Ode batched lockstep stepper: one SoA sweep serves every
       active column, so a single allocation here scales with rounds x
       columns *)
    "Ode.dp_attempt_cols";
    "Ode.batch_commit";
    "Ode.batch_guard";
    "Active.drop";
    (* Meanfield batched derivative kernels (per-sweep inner loops) *)
    "Model.fallback_deriv_cols";
    "Simple_ws.deriv_cols";
    "Erlang_ws.deriv_cols";
    "Steal_half_ws.deriv_cols";
    "Tail.boundary_ratio_col";
    "Tail.ext_col";
    (* Prob.Rng samplers + the distributions the event step draws *)
    "Rng.float";
    "Rng.float_pos";
    "Rng.int";
    "Rng.bool";
    "Dist.exponential";
    "Dist.service_mean_one";
  ]

(* Calls whose callee is an ordinary value (not an external primitive)
   that we nevertheless know does not allocate. Kept short on purpose:
   everything else unknown is assumed allocating. *)
let nonalloc_functions =
  [
    "Float.equal";
    "Float.compare";
    "Float.is_nan";
    "Float.is_finite";
    "Float.is_integer";
    "Int.equal";
    "Int.compare";
    "Array.sort" (* stdlib heapsort, in place *);
    "Array.blit" (* in place; its bounds guard raises only on misuse *);
  ]

(* Polymorphic stdlib comparisons that are allocation-free on immediates
   but box a float argument at the call. Flagged only when a float is
   passed. *)
let poly_compare_functions = [ "Stdlib.min"; "Stdlib.max" ]

(* Compiler builtins (external "%...") that do allocate. *)
let allocating_builtins = [ "%makemutable" (* ref *) ]

(* R6: the SPSC mailbox discipline of lib/sim/cluster.ml. Producer ops on
   a [Mailbox.t] must reach it through the sending shard's own
   [outboxes] row; consumer ops through [mailboxes.(src).(own sid)].
   Setup ops (create/clear) are ownership-neutral. *)
let spsc_module = "Mailbox"
let spsc_producer_ops = [ "push" ]
let spsc_consumer_ops = [ "drain" ]
let spsc_neutral_ops = [ "create"; "clear"; "length"; "capacity" ]
let spsc_producer_field = "outboxes"
let spsc_matrix_field = "mailboxes"
let spsc_owner_field = "sid"

(* R6 scope: only library code participates in the shard protocol;
   tests drive mailboxes directly (FIFO/wrap-around unit tests). *)
let spsc_scope = [ "lib/" ]

let matches path prefix = String.starts_with ~prefix path
let timing_allowed path = List.exists (matches path) timing_whitelist
let in_parallel_scope path = List.exists (matches path) parallel_libs
let mli_required_for path = List.exists (matches path) mli_required

let whitelisted ~rule path =
  List.exists
    (fun (r, prefix, _) -> String.equal r rule && matches path prefix)
    file_whitelist
