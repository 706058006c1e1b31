(* End-to-end checks of the loadsteal CLI binary, run as a subprocess the
   way a user would invoke it. Kept to a handful of fast solves so the
   suite stays quick; the numerical content of each answer is covered by
   the library tests, here we check wiring: argument parsing, output
   shape and exit codes. *)

let cli = Filename.concat (Filename.concat ".." "bin") "loadsteal_cli.exe"

let run args =
  let cmd = Printf.sprintf "%s %s 2>&1" (Filename.quote cli) args in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i =
    i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1))
  in
  go 0

let check_contains out needle =
  Alcotest.(check bool)
    (Printf.sprintf "output mentions %S" needle)
    true (contains out needle)

let test_fixpoint_anderson () =
  let code, out =
    run "fixpoint --model threshold --lambda 0.9 --threshold 4 --stats"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains out "solver:    anderson";
  check_contains out "converged: true";
  check_contains out "iterations:";
  check_contains out "evals:"

let test_fixpoint_rk4_matches_default () =
  (* both solver paths must print the same E[T] line for the same model *)
  let et solver =
    let code, out =
      run (Printf.sprintf "fixpoint --model simple --lambda 0.8 --solver %s"
             solver)
    in
    Alcotest.(check int) (solver ^ " exit code") 0 code;
    check_contains out ("solver:    " ^ solver);
    let line =
      List.find (fun l -> contains l "E[T]:") (String.split_on_char '\n' out)
    in
    Scanf.sscanf (String.trim line) "E[T]: %f" (fun x -> x)
  in
  let a = et "rk4" and b = et "rk45" and c = et "anderson" in
  Alcotest.(check (float 1e-5)) "rk45 agrees" a b;
  Alcotest.(check (float 1e-5)) "anderson agrees" a c

let test_fixpoint_rejects_unknown_solver () =
  let code, _ = run "fixpoint --model simple --lambda 0.8 --solver nope" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

let test_fixpoint_rejects_unknown_model () =
  let code, _ = run "fixpoint --model no-such-model --lambda 0.8" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

(* Invalid input ends in one "loadsteal_cli: <reason>" line and a
   cmdliner error code (123 some error, 124 command-line error), never
   in an uncaught-exception report (125). *)
let rejects args =
  Alcotest.test_case args `Quick (fun () ->
      let code, out = run args in
      Alcotest.(check bool)
        (Printf.sprintf "exit code %d is 123 or 124" code)
        true
        (code = 123 || code = 124);
      match String.split_on_char '\n' (String.trim out) with
      | [ line ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names the program" line)
            true
            (String.starts_with ~prefix:"loadsteal_cli: " line
            && not (contains line "uncaught exception"))
      | lines ->
          Alcotest.failf "expected one line, got %d:\n%s" (List.length lines)
            out)

let () =
  Alcotest.run "cli"
    [
      ( "fixpoint",
        [
          Alcotest.test_case "anderson with stats" `Quick
            test_fixpoint_anderson;
          Alcotest.test_case "solvers agree on E[T]" `Quick
            test_fixpoint_rk4_matches_default;
          Alcotest.test_case "rejects unknown solver" `Quick
            test_fixpoint_rejects_unknown_solver;
          Alcotest.test_case "rejects unknown model" `Quick
            test_fixpoint_rejects_unknown_model;
        ] );
      ( "bad input",
        List.map rejects
          [
            "simulate --procs 1";
            "simulate --shards 2 --policy preemptive";
            "simulate --shards 2 --latency 0";
            "simulate --warmup 200 --horizon 100";
            "simulate --runs 0";
            "simulate --service bogus";
            "fixpoint --lambda 1.5";
          ] );
    ]
