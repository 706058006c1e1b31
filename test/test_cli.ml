(* End-to-end checks of the loadsteal CLI and loadsteal-serve binaries,
   run as subprocesses the way a user would invoke them. Kept to a
   handful of fast solves so the suite stays quick; the numerical
   content of each answer is covered by the library tests, here we check
   wiring: argument parsing, output shape and exit codes. *)

let cli = Filename.concat (Filename.concat ".." "bin") "loadsteal_cli.exe"
let serve = Filename.concat (Filename.concat ".." "bin") "loadsteal_serve.exe"

let run ?(exe = cli) args =
  let cmd = Printf.sprintf "%s %s 2>&1" (Filename.quote exe) args in
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

let test_fixed_point_newton () =
  let code, out =
    run "fixed-point --model threshold --lambda 0.9 --threshold 4 --stats"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains out "solver:    newton";
  check_contains out "converged: true";
  check_contains out "iterations:";
  check_contains out "evals:"

let test_fixed_point_rk4_matches_default () =
  (* every solver path must print the same E[T] line for the same model *)
  let et solver =
    let code, out =
      run
        (Printf.sprintf "fixed-point --model simple --lambda 0.8 --solver %s"
           solver)
    in
    Alcotest.(check int) (solver ^ " exit code") 0 code;
    check_contains out ("solver:    " ^ solver);
    let line =
      List.find
        (fun l -> contains l "E[T] time in system:")
        (String.split_on_char '\n' out)
    in
    Scanf.sscanf (String.trim line) "E[T] time in system: %f" (fun x -> x)
  in
  let a = et "rk4" and b = et "rk45" and c = et "newton" in
  Alcotest.(check (float 1e-5)) "rk45 agrees" a b;
  Alcotest.(check (float 1e-5)) "newton agrees" a c

let test_fixed_point_rejects_unknown_solver () =
  let code, _ = run "fixed-point --model simple --lambda 0.8 --solver nope" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

(* Every catalog family solves at its own defaults: no flag but λ, which
   sits below hetero's stability edge (between 0.80 and 0.82). One case
   for all families, so the group's case indices stay one digit wide and
   the runner prints the other case names in full. *)
let test_every_family_solves_at_defaults () =
  List.iter
    (fun name ->
      let code, out =
        run (Printf.sprintf "fixed-point --model %s --lambda 0.78" name)
      in
      Alcotest.(check int) (name ^ " exit code") 0 code;
      Alcotest.(check bool)
        (name ^ " output mentions \"converged: true\"")
        true
        (contains out "converged: true"))
    Meanfield.Catalog.names

let test_fixed_point_rejects_unknown_model () =
  let code, _ = run "fixed-point --model no-such-model --lambda 0.8" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

(* Invalid input ends in one "<program>: <reason>" line and a cmdliner
   error code (123 some error, 124 command-line error), never in an
   uncaught-exception report (125). *)
let one_line_error ~program ~codes (code, out) =
  Alcotest.(check bool)
    (Printf.sprintf "exit code %d is one of %s" code
       (String.concat ", " (List.map string_of_int codes)))
    true (List.mem code codes);
  match String.split_on_char '\n' (String.trim out) with
  | [ line ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the program" line)
        true
        (String.starts_with ~prefix:(program ^ ": ") line
        && not (contains line "uncaught exception"))
  | lines ->
      Alcotest.failf "expected one line, got %d:\n%s" (List.length lines) out

let rejects args =
  Alcotest.test_case args `Quick (fun () ->
      one_line_error ~program:"loadsteal_cli" ~codes:[ 123; 124 ] (run args))

(* [args dir] are the flags, given a fresh directory for the socket,
   so no case touches another daemon's socket. *)
let serve_rejects name args =
  Alcotest.test_case name `Quick (fun () ->
      let dir = Filename.temp_file "loadsteal-test" "" in
      Sys.remove dir;
      Sys.mkdir dir 0o700;
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove (Filename.concat dir "s.sock") with Sys_error _ -> ());
          try Sys.rmdir dir with Sys_error _ -> ())
        (fun () ->
          one_line_error ~program:"loadsteal_serve" ~codes:[ 123 ]
            (run ~exe:serve (args dir))))

let socket_in dir = Filename.quote (Filename.concat dir "s.sock")

(* [daemon --socket FILE] on a path that holds a regular file must
   refuse to start and leave the file alone. A daemon that does not
   refuse binds the path and waits for a client, so it is killed after
   10 s and the case fails instead of hanging. *)
let test_daemon_keeps_regular_file () =
  let path = Filename.temp_file "loadsteal-test" ".txt" in
  let log = Filename.temp_file "loadsteal-test" ".log" in
  let contents = "not mine\n" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; log ])
    (fun () ->
      let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close out)
          (fun () ->
            Unix.create_process serve
              [|
                serve; "daemon"; "--socket"; path; "--domains"; "1";
                "--accept"; "1";
              |]
              Unix.stdin out out)
      in
      let rec wait k =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when k > 0 ->
            Unix.sleepf 0.01;
            wait (k - 1)
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Alcotest.fail "daemon still running after 10 s"
        | _, Unix.WEXITED n -> n
        | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
      in
      let code = wait 1000 in
      let output = In_channel.with_open_bin log In_channel.input_all in
      let kept =
        match Unix.lstat path with
        | { Unix.st_kind = Unix.S_REG; _ } ->
            In_channel.with_open_bin path In_channel.input_all
        | _ -> "(replaced)"
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> "(deleted)"
      in
      Alcotest.(check string) "file contents unchanged" contents kept;
      one_line_error ~program:"loadsteal_serve" ~codes:[ 123 ] (code, output))

let () =
  Alcotest.run "cli"
    [
      (* the fixed-point solve through [fixed-point]; the group keeps
         its short name so the case names stay stable *)
      ( "fixpoint",
        [
          Alcotest.test_case "newton with stats" `Quick
            test_fixed_point_newton;
          Alcotest.test_case "solvers agree on E[T]" `Quick
            test_fixed_point_rk4_matches_default;
          Alcotest.test_case "rejects unknown solver" `Quick
            test_fixed_point_rejects_unknown_solver;
          Alcotest.test_case "rejects unknown model" `Quick
            test_fixed_point_rejects_unknown_model;
          Alcotest.test_case "every family solves at defaults" `Quick
            test_every_family_solves_at_defaults;
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
            "fixed-point --lambda 1.5";
            "fixed-point --model simple --threshold 4";
            "fixed-point --model erlang --stages 21";
          ] );
      ( "serve",
        [
          serve_rejects "daemon --domains 0" (fun dir ->
              "daemon --domains 0 --socket " ^ socket_in dir);
          serve_rejects "replay --connections 0" (fun dir ->
              "replay --connections 0 --socket " ^ socket_in dir);
          serve_rejects "daemon in a missing directory" (fun dir ->
              "daemon --domains 1 --accept 1 --socket "
              ^ socket_in (Filename.concat dir "missing"));
          Alcotest.test_case "daemon keeps a regular file" `Quick
            test_daemon_keeps_regular_file;
        ] );
    ]
