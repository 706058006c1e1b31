(* Tests for the loadsteal-lint static analysis pass (tools/lint):
   one positive and one negative fixture per rule R1-R4, the inline
   suppression comment, the config whitelists, and a --json round trip.
   Fixtures are linted from strings; the [path] given to the engine
   decides which scopes and whitelists apply. *)

open Lint

let rules diags = List.map (fun d -> d.Diag.rule) diags

let lint ?(path = "lib/core/fixture.ml") contents =
  Engine.lint_source ~path ~contents

let check_rules msg expected ?path contents =
  Alcotest.(check (list string)) msg expected (rules (lint ?path contents))

(* ---------- R1: determinism ---------- *)

let test_determinism_flags_random () =
  let diags = lint "let draw () =\n  Random.int 6\n" in
  Alcotest.(check (list string)) "rule" [ "determinism" ] (rules diags);
  let d = List.hd diags in
  Alcotest.(check int) "line" 2 d.Diag.line;
  Alcotest.(check int) "col" 2 d.Diag.col;
  check_rules "self_init too" [ "determinism" ] "let () = Random.self_init ()\n"

let test_determinism_flags_clock () =
  check_rules "Sys.time" [ "determinism" ] "let t () = Sys.time ()\n";
  check_rules "gettimeofday" [ "determinism" ]
    "let t () = Unix.gettimeofday ()\n"

let test_determinism_respects_whitelist () =
  (* the same clock read is fine in bench/ and in the ablation module *)
  check_rules "bench may time" [] ~path:"bench/main.ml"
    "let t () = Unix.gettimeofday ()\n";
  check_rules "ablation may time" [] ~path:"lib/experiments/exp_ablation.ml"
    "let t () = Monotonic_clock.now ()\n"

let test_determinism_negative () =
  check_rules "Prob.Rng is the sanctioned path" []
    "let draw rng = Prob.Rng.float rng\n"

(* ---------- R2: float discipline ---------- *)

let test_float_eq_flags_literal () =
  let diags = lint "let f x =\n  if x = 0.0 then 1 else 2\n" in
  Alcotest.(check (list string)) "rule" [ "float-eq" ] (rules diags);
  Alcotest.(check int) "line" 2 (List.hd diags).Diag.line

let test_float_eq_flags_annotation_and_compare () =
  check_rules "annotated operand" [ "float-eq" ]
    "let f (x : float) y = (x : float) = y\n";
  check_rules "compare on float literal" [ "float-eq" ]
    "let c x = compare x 1.5\n";
  check_rules "bare compare as ordering" [ "float-eq" ]
    "let sort xs = Array.sort compare xs\n";
  check_rules "physical equality on floats" [ "float-eq" ]
    "let g x = x == 3.14\n"

let test_float_eq_flags_record_labels () =
  (* regression: Event_heap.precedes compared parallel-array elements
     with polymorphic (=) — nothing at the use site was float-shaped,
     only the record declaration. The lint now reads file-local labels. *)
  check_rules "float-array label element" [ "float-eq" ]
    "type t = { times : float array; seqs : int array }\n\
     let precedes t i j = t.times.(i) = t.times.(j)\n";
  check_rules "float label field" [ "float-eq" ]
    "type cell = { v : float }\n\
     let same a b = a.v = b.v\n";
  check_rules "floatarray label too" [ "float-eq" ]
    "type t = { lanes : floatarray }\n\
     let f t i = Array.unsafe_get t.lanes i <> 0.0\n"

let test_float_eq_flags_nested_array_labels () =
  (* the calendar queue's bucket lanes are [float array array]: an
     element read peels two Array.get layers off the label before
     anything float-shaped appears at the use site *)
  check_rules "float array array element" [ "float-eq" ]
    "type t = { bucket_times : float array array; bucket_len : int array }\n\
     let f t b i j = t.bucket_times.(b).(i) = t.bucket_times.(b).(j)\n";
  check_rules "nested element under polymorphic compare" [ "float-eq" ]
    "type t = { lanes : float array array }\n\
     let stale t b j x = compare t.lanes.(b).(j) x\n"

let test_float_eq_nested_array_negative () =
  (* int-element counters with the same nesting stay quiet, and so do
     ordering comparisons on the float lanes *)
  check_rules "occupancy counters are ints" []
    "type t = { occ : int array; bucket_seqs : int array array }\n\
     let f t b i = t.occ.(i) = t.bucket_seqs.(b).(i)\n";
  check_rules "ordering on nested float lanes allowed" []
    "type t = { bucket_times : float array array }\n\
     let before t b i j = t.bucket_times.(b).(i) < t.bucket_times.(b).(j)\n"

let test_float_eq_negative () =
  check_rules "int equality untouched" [] "let f x = x = 3\n";
  check_rules "Float.equal is the fix" []
    "let f x = Float.equal x 0.0 && Float.compare x 1.0 < 0\n";
  check_rules "float ordering comparisons allowed" []
    "let f x = x < 0.5 || x >= 1.0\n";
  check_rules "int labels stay quiet" []
    "type t = { seqs : int array; len : int }\n\
     let precedes t i j = t.seqs.(i) = t.seqs.(j) && t.len = 0\n";
  check_rules "float label ordering comparisons allowed" []
    "type t = { times : float array }\n\
     let before t i j = t.times.(i) < t.times.(j)\n"

(* ---------- R3: domain safety ---------- *)

let test_domain_safety_flags_toplevel_state () =
  check_rules "top-level ref" [ "domain-safety" ] "let counter = ref 0\n";
  check_rules "top-level Hashtbl" [ "domain-safety" ]
    "let cache = Hashtbl.create 16\n";
  check_rules "mutable field" [ "domain-safety" ]
    "type t = { mutable hits : int }\n"

let test_domain_safety_flags_printf_in_pool_lambda () =
  check_rules "printf under Pool.map" [ "domain-safety" ]
    "let go pool xs =\n\
    \  Parallel.Pool.map pool (fun x -> Format.printf \"%d\" x; x) xs\n";
  check_rules "print_endline under par_map" [ "domain-safety" ]
    "let go scope xs =\n\
    \  Scope.par_map scope (fun x -> print_endline \"row\"; x) xs\n"

let test_domain_safety_flags_bigarray_in_pool_lambda () =
  check_rules "explicit Array1.set under Pool.map_int" [ "domain-safety" ]
    "let go pool lane =\n\
    \  Parallel.Pool.map_int pool (fun i -> Bigarray.Array1.set lane i 0.0) 4\n";
  (* lane.{i} <- v desugars to Bigarray.Array1.set in the parsetree *)
  check_rules "index sugar under Pool.map" [ "domain-safety" ]
    "let go pool lane xs =\n\
    \  Parallel.Pool.map pool (fun i -> lane.{i} <- 1.0) xs\n";
  check_rules "open-Bigarray spelling under par_map" [ "domain-safety" ]
    "let go scope lane xs =\n\
    \  Scope.par_map scope (fun i -> Array1.unsafe_get lane i) xs\n"

let test_domain_safety_negative () =
  (* per-call state, out-of-scope paths, and printing outside the pool *)
  check_rules "local ref is per-call" [] "let f () = let acc = ref 0 in !acc\n";
  check_rules "atomics are sanctioned" [] "let hits = Atomic.make 0\n";
  check_rules "out of parallel scope" [] ~path:"bin/tool.ml"
    "let counter = ref 0\n";
  check_rules "printing on the calling domain" []
    "let go xs = List.iter (fun x -> Format.printf \"%d\" x) xs\n";
  (* Bigarray access is fine outside pool lambdas (owner thread), and
     ordinary arrays under the pool are not Bigarray lanes *)
  check_rules "bigarray on the calling domain" []
    "let read lane i = (lane.{i} : float)\n";
  check_rules "plain array under the pool" []
    "let go pool (xs : float array) =\n\
    \  Parallel.Pool.map_int pool (fun i -> xs.(i)) 4\n"

let test_domain_safety_whitelisted_file () =
  check_rules "cluster.ml is whitelisted per-replica state" []
    ~path:"lib/sim/cluster.ml" "type t = { mutable busy : bool }\n";
  check_rules "cluster.ml owns its Bigarray lanes" []
    ~path:"lib/sim/cluster.ml"
    "let go pool lane =\n\
    \  Parallel.Pool.map_int pool (fun i -> lane.{i} <- 0.0) 4\n"

(* Mutex-striped shared state: declaring a Mutex.t alongside mutable
   fields licenses the declaration, and shifts the obligation to every
   use site — field reads and writes must sit under Mutex.protect. *)
let striped_decl = "type t = { lock : Mutex.t; mutable hits : int }\n"

let test_domain_safety_striped_decl_licensed () =
  check_rules "Mutex.t field licenses mutable siblings" [] striped_decl;
  check_rules "without the Mutex.t the declaration is still flagged"
    [ "domain-safety" ] "type t = { mutable hits : int }\n"

let test_domain_safety_striped_access_under_lock () =
  check_rules "write under Mutex.protect" []
    (striped_decl
   ^ "let bump t = Mutex.protect t.lock (fun () -> t.hits <- t.hits + 1)\n");
  check_rules "read under Mutex.protect" []
    (striped_decl ^ "let hits t = Mutex.protect t.lock (fun () -> t.hits)\n")

let test_domain_safety_striped_access_outside_lock () =
  check_rules "bare write to a striped field" [ "domain-safety" ]
    (striped_decl ^ "let reset t = t.hits <- 0\n");
  check_rules "bare read of a striped field" [ "domain-safety" ]
    (striped_decl ^ "let hits t = t.hits\n");
  (* read-modify-write outside the lock is two unsynchronised accesses *)
  check_rules "bare increment flags both sides"
    [ "domain-safety"; "domain-safety" ]
    (striped_decl ^ "let bump t = t.hits <- t.hits + 1\n");
  (* same-named field on a record without a Mutex.t is not striped, so
     only the declaration diagnostic fires, not the use-site one *)
  check_rules "unstriped record keeps the declaration diagnostic"
    [ "domain-safety" ]
    "type t = { mutable hits : int }\nlet hits t = t.hits\n";
  check_rules "out of parallel scope" [] ~path:"bin/tool.ml"
    (striped_decl ^ "let bump t = t.hits <- t.hits + 1\n")

(* ---------- R4: interface hygiene ---------- *)

let test_missing_mli_positive () =
  let diags =
    Rules.missing_mli
      ~files:[ "lib/core/model.ml"; "lib/core/model.mli"; "lib/core/new.ml" ]
  in
  Alcotest.(check (list string)) "rule" [ "missing-mli" ] (rules diags);
  Alcotest.(check string) "file" "lib/core/new.ml" (List.hd diags).Diag.file

let test_missing_mli_negative () =
  Alcotest.(check (list string))
    "paired modules and non-lib code are fine" []
    (rules
       (Rules.missing_mli
          ~files:
            [ "lib/core/model.ml"; "lib/core/model.mli"; "bin/tool.ml";
              "test/test_x.ml" ]))

(* ---------- suppression ---------- *)

let test_suppression_comment () =
  check_rules "matching rule suppresses" []
    "let f x = x = 0.0 (* lint: allow float-eq: golden bit pattern *)\n";
  check_rules "wrong rule name does not" [ "float-eq" ]
    "let f x = x = 0.0 (* lint: allow determinism: wrong rule *)\n";
  check_rules "preceding comment-only line suppresses" []
    "(* lint: allow float-eq: golden bit pattern *)\nlet f x = x = 0.0\n"

let test_suppression_preceding_line_scope () =
  (* a marker trailing code on the previous line covers that line only *)
  check_rules "trailing marker does not leak downward" [ "float-eq" ]
    "let a = 1 (* lint: allow float-eq: this line only *)\n\
     let f x = x = 0.0\n";
  (* and a comment-only marker covers exactly the next line *)
  check_rules "comment-only marker covers one line" [ "float-eq" ]
    "(* lint: allow float-eq: first binding *)\n\
     let f x = x = 0.0\n\
     let g x = x = 1.0\n"

let test_suppression_requires_justification () =
  (* a bare marker still suppresses, but is itself reported; the
     fixture is split so this file's own lint run sees no bare marker *)
  check_rules "bare marker flagged" [ "suppression" ]
    ("let f x = x = 0.0 (* lint: " ^ "allow float-eq *)\n");
  (* unknown rule tokens are prose (doc comments), not suppressions *)
  check_rules "unknown rule token ignored" []
    "(* lint: allow <rule> *)\nlet x = 1\n"

(* ---------- typed rules (cmt-level, typechecked in memory) ---------- *)

(* Typecheck a fixture string and run the typed rules on it through the
   same engine the CLI uses. [roots] defaults to [] so the allocation
   pass only fires when a test plants its own hot-path roots. *)
let typed_unit ?(path = "lib/core/fixture.ml") ?(modname = "Fixture")
    ?extra_modules contents =
  let str, sg = Typecheck.structure ?extra_modules ~modname ~path contents in
  ({ Cmt_loader.source = path; modname; str }, sg, (path, contents))

let typed_diags ?(roots = []) units =
  let sources = List.map (fun (_, _, src) -> src) units in
  Typed_engine.check_units ~roots
    ~lookup:(fun f -> List.assoc_opt f sources)
    (List.map (fun (u, _, _) -> u) units)

let typed_lint ?path ?modname ?(roots = []) contents =
  typed_diags ~roots [ typed_unit ?path ?modname contents ]

let check_typed msg expected ?path ?modname ?roots contents =
  Alcotest.(check (list string))
    msg expected
    (rules (typed_lint ?path ?modname ?roots contents))

(* R2' typed float-eq: the operand type is inferred, not spelled out —
   exactly what the syntactic detector cannot see *)
let test_typed_float_eq_positive () =
  let src = "let threshold = 1.5\nlet is_t x = x = threshold\n" in
  check_rules "syntactic detector is blind here" [] src;
  let diags = typed_lint src in
  Alcotest.(check (list string)) "typed detector fires" [ "float-eq" ]
    (rules diags);
  Alcotest.(check int) "line" 2 (List.hd diags).Diag.line;
  check_typed "physical equality on inferred floats" [ "float-eq" ]
    "let same (x : float) y = x == y\n";
  check_typed "bare compare instantiated at float" [ "float-eq" ]
    "let sort (xs : float array) = Array.sort compare xs\n"

let test_typed_float_eq_negative () =
  check_typed "int equality through inference" []
    "let one = 1\nlet is_one x = x = one\n";
  check_typed "Float.equal is the fix" []
    "let f (x : float) y = Float.equal x y\n";
  check_typed "float ordering comparisons allowed" []
    "let before (x : float) y = x < y\n"

(* R5 zero-alloc: reachability from planted roots *)
let test_typed_zero_alloc_positive () =
  let diags =
    typed_lint ~roots:[ "Fixture.hot" ]
      "let mk x = Some x\nlet hot x = mk x\n"
  in
  Alcotest.(check (list string)) "allocation reached" [ "zero-alloc" ]
    (rules diags);
  let d = List.hd diags in
  Alcotest.(check int) "reported at the site" 1 d.Diag.line;
  Alcotest.(check bool) "chain names the root" true
    (Engine.contains d.Diag.message "Fixture.hot")

let test_typed_zero_alloc_negative () =
  check_typed "arithmetic does not allocate" [] ~roots:[ "Fixture.hot" ]
    "let hot x = x + 1\n";
  check_typed "non-root allocations ignored" [] ~roots:[ "Fixture.hot" ]
    "let hot x = x * 2\nlet cold x = Some x\n"

let test_typed_zero_alloc_suppression () =
  check_typed "site-level allow" [] ~roots:[ "Fixture.hot" ]
    "let hot x = Some x (* lint: allow zero-alloc: boxed option is the API *)\n";
  check_typed "function-level allow waives the growth path" []
    ~roots:[ "Fixture.hot" ]
    "(* lint: allow zero-alloc: growth path, absent in steady state *)\n\
     let cold x = [| x |]\n\
     let hot x = cold x\n";
  (* the allow on [cold] must not blind the checker to [hot]'s own sites *)
  let diags =
    typed_lint ~roots:[ "Fixture.hot" ]
      "(* lint: allow zero-alloc: growth path, absent in steady state *)\n\
       let cold x = [| x |]\n\
       let hot x = ignore (cold x); Some x\n"
  in
  Alcotest.(check (list string)) "root's own site still flagged"
    [ "zero-alloc" ] (rules diags);
  Alcotest.(check int) "at the root's line" 3 (List.hd diags).Diag.line

let test_typed_zero_alloc_stale_root () =
  let diags = typed_lint ~roots:[ "Fixture.nope" ] "let hot x = x\n" in
  Alcotest.(check (list string)) "stale root reported" [ "zero-alloc" ]
    (rules diags);
  Alcotest.(check bool) "message names the root" true
    (Engine.contains (List.hd diags).Diag.message "Fixture.nope")

let test_typed_zero_alloc_cross_module () =
  (* unit A allocates; unit B's hot path reaches it across the module
     boundary. A's signature is fed to B as a persistent module, the
     in-memory equivalent of the cmt loader's cross-unit table. *)
  let a =
    typed_unit ~path:"lib/core/alloclib.ml" ~modname:"Alloclib"
      "let build x = (x, x)\nlet id x = x\n"
  in
  let _, a_sg, _ = a in
  let b ~body =
    typed_unit ~extra_modules:[ ("Alloclib", a_sg) ]
      ~path:"lib/core/fixture.ml" ~modname:"Fixture" body
  in
  let diags =
    typed_diags ~roots:[ "Fixture.hot" ]
      [ a; b ~body:"let hot x = Alloclib.build x\n" ]
  in
  Alcotest.(check (list string)) "cross-module reach" [ "zero-alloc" ]
    (rules diags);
  let d = List.hd diags in
  Alcotest.(check string) "site is in the callee's unit" "lib/core/alloclib.ml"
    d.Diag.file;
  Alcotest.(check bool) "chain crosses the boundary" true
    (Engine.contains d.Diag.message "Fixture.hot -> Alloclib.build");
  Alcotest.(check (list string)) "allocation-free callee is clean" []
    (rules
       (typed_diags ~roots:[ "Fixture.hot" ]
          [ a; b ~body:"let hot x = Alloclib.id x\n" ]))

(* R6 spsc-ownership: a self-contained mini shard protocol *)
let spsc_prelude =
  "module Mailbox = struct\n\
   \  type t = { mutable len : int }\n\
   \  let push t _x = t.len <- t.len + 1\n\
   \  let drain t f = f t.len\n\
   end\n\
   type shard = { sid : int; outboxes : Mailbox.t array }\n\
   type t = { mailboxes : Mailbox.t array array }\n"

let spsc_lint body =
  typed_lint ~path:"lib/sim/fixture.ml" ~modname:"Fixture"
    (spsc_prelude ^ body)

let test_typed_spsc_positive () =
  (* producer writing through the shared matrix *)
  Alcotest.(check (list string)) "push through matrix" [ "spsc-ownership" ]
    (rules (spsc_lint "let bad t src d x = Mailbox.push t.mailboxes.(src).(d) x\n"));
  (* consumer reading a producer row *)
  Alcotest.(check (list string)) "drain of an outboxes row"
    [ "spsc-ownership" ]
    (rules (spsc_lint "let bad sh f = Mailbox.drain sh.outboxes.(0) f\n"));
  (* consumer reading a column it does not own *)
  Alcotest.(check (list string)) "drain of a foreign column"
    [ "spsc-ownership" ]
    (rules (spsc_lint "let bad t src d f = Mailbox.drain t.mailboxes.(src).(d) f\n"));
  (* an endpoint the rule cannot classify *)
  Alcotest.(check (list string)) "unprovable endpoint" [ "spsc-ownership" ]
    (rules (spsc_lint "let bad box x = Mailbox.push box x\n"))

let test_typed_spsc_negative () =
  Alcotest.(check (list string)) "producer through own outboxes row" []
    (rules (spsc_lint "let ok sh d x = Mailbox.push sh.outboxes.(d) x\n"));
  Alcotest.(check (list string)) "consumer through owned column" []
    (rules
       (spsc_lint
          "let ok t sh src f = Mailbox.drain t.mailboxes.(src).(sh.sid) f\n"));
  Alcotest.(check (list string)) "let-bound endpoint is chased" []
    (rules
       (spsc_lint
          "let ok sh d x = let box = sh.outboxes.(d) in Mailbox.push box x\n"));
  (* outside lib/ the protocol does not apply: tests drive mailboxes
     directly *)
  Alcotest.(check (list string)) "out of scope" []
    (rules
       (typed_lint ~path:"test/fixture.ml" ~modname:"Fixture"
          (spsc_prelude ^ "let f box x = Mailbox.push box x\n")))

(* ---------- --json round trip ---------- *)

let test_json_round_trip () =
  let diags =
    lint "let f x =\n  Random.bits () + (if x = 0.5 then 1 else 0)\n"
  in
  Alcotest.(check int) "two findings" 2 (List.length diags);
  let round = Diag.list_of_json (Diag.list_to_json diags) in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "rule" a.Diag.rule b.Diag.rule;
      Alcotest.(check string) "file" a.Diag.file b.Diag.file;
      Alcotest.(check int) "line" a.Diag.line b.Diag.line;
      Alcotest.(check int) "col" a.Diag.col b.Diag.col;
      Alcotest.(check string) "message" a.Diag.message b.Diag.message)
    diags round;
  (* escapes survive: a message with quotes, backslashes and newlines *)
  let tricky =
    [ Diag.v ~rule:"float-eq" ~file:{|lib/"odd".ml|} ~line:3 ~col:7
        "say \"no\" to\n\tpoly\\compare" ]
  in
  let round = Diag.list_of_json (Diag.list_to_json tricky) in
  Alcotest.(check string)
    "tricky message" (List.hd tricky).Diag.message (List.hd round).Diag.message;
  Alcotest.(check string)
    "tricky file" (List.hd tricky).Diag.file (List.hd round).Diag.file;
  (* the typed rule ids survive the trip unchanged *)
  let typed =
    [
      Diag.v ~rule:"zero-alloc" ~file:"lib/sim/shard.ml" ~line:1 ~col:0
        "tuple construction on hot path Shard.handle (via Shard.handle)";
      Diag.v ~rule:"spsc-ownership" ~file:"lib/sim/shard.ml" ~line:2 ~col:4
        "push through the shared matrix";
    ]
  in
  Alcotest.(check (list string))
    "typed rule ids round-trip"
    (rules typed)
    (rules (Diag.list_of_json (Diag.list_to_json typed)))

let test_parse_error_reported () =
  Alcotest.(check (list string))
    "unparsable fixture" [ "parse-error" ]
    (rules (lint "let let let\n"))

let () =
  Alcotest.run "lint"
    [
      ( "determinism",
        [
          Alcotest.test_case "flags Random" `Quick test_determinism_flags_random;
          Alcotest.test_case "flags clocks" `Quick test_determinism_flags_clock;
          Alcotest.test_case "timing whitelist" `Quick
            test_determinism_respects_whitelist;
          Alcotest.test_case "clean source" `Quick test_determinism_negative;
        ] );
      ( "float-eq",
        [
          Alcotest.test_case "flags literal =" `Quick test_float_eq_flags_literal;
          Alcotest.test_case "flags annotation/compare" `Quick
            test_float_eq_flags_annotation_and_compare;
          Alcotest.test_case "flags float record labels" `Quick
            test_float_eq_flags_record_labels;
          Alcotest.test_case "flags nested array labels" `Quick
            test_float_eq_flags_nested_array_labels;
          Alcotest.test_case "nested int arrays stay quiet" `Quick
            test_float_eq_nested_array_negative;
          Alcotest.test_case "clean source" `Quick test_float_eq_negative;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "flags top-level state" `Quick
            test_domain_safety_flags_toplevel_state;
          Alcotest.test_case "flags printf in pool lambda" `Quick
            test_domain_safety_flags_printf_in_pool_lambda;
          Alcotest.test_case "flags bigarray in pool lambda" `Quick
            test_domain_safety_flags_bigarray_in_pool_lambda;
          Alcotest.test_case "clean source" `Quick test_domain_safety_negative;
          Alcotest.test_case "file whitelist" `Quick
            test_domain_safety_whitelisted_file;
          Alcotest.test_case "striped declaration licensed" `Quick
            test_domain_safety_striped_decl_licensed;
          Alcotest.test_case "striped access under lock" `Quick
            test_domain_safety_striped_access_under_lock;
          Alcotest.test_case "striped access outside lock" `Quick
            test_domain_safety_striped_access_outside_lock;
        ] );
      ( "missing-mli",
        [
          Alcotest.test_case "unpaired lib module" `Quick
            test_missing_mli_positive;
          Alcotest.test_case "paired or out of scope" `Quick
            test_missing_mli_negative;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "inline comment" `Quick test_suppression_comment;
          Alcotest.test_case "preceding-line scope" `Quick
            test_suppression_preceding_line_scope;
          Alcotest.test_case "justification required" `Quick
            test_suppression_requires_justification;
        ] );
      ( "typed-float-eq",
        [
          Alcotest.test_case "inferred operands flagged" `Quick
            test_typed_float_eq_positive;
          Alcotest.test_case "clean source" `Quick test_typed_float_eq_negative;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "reachable site flagged" `Quick
            test_typed_zero_alloc_positive;
          Alcotest.test_case "clean hot path" `Quick
            test_typed_zero_alloc_negative;
          Alcotest.test_case "allows" `Quick test_typed_zero_alloc_suppression;
          Alcotest.test_case "stale root" `Quick
            test_typed_zero_alloc_stale_root;
          Alcotest.test_case "cross-module reachability" `Quick
            test_typed_zero_alloc_cross_module;
        ] );
      ( "spsc-ownership",
        [
          Alcotest.test_case "violations flagged" `Quick
            test_typed_spsc_positive;
          Alcotest.test_case "discipline accepted" `Quick
            test_typed_spsc_negative;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse error" `Quick test_parse_error_reported;
        ] );
    ]
