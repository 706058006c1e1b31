(* Per-run steadiness diagnostics. They are reported next to the metrics
   and never used to adjust one. *)

(* Host steal time in jiffies: the 8th value of /proc/stat's cpu line. *)
let steal_jiffies () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some l -> (
            match List.filter (( <> ) "") (String.split_on_char ' ' l) with
            | "cpu" :: fields when List.length fields >= 8 -> int_of_string (List.nth fields 7)
            | _ -> 0)
        | None -> 0)
  with Sys_error _ | Failure _ -> 0

(* Seconds taken by a fixed floating-point loop of the benchmark's own:
   a reading of the machine's speed at that moment. *)
let arith_loop_s () =
  let t0 = Util.now_ns () in
  let acc = ref 0.0 in
  for i = 1 to 20_000_000 do
    acc := !acc +. (float_of_int (i land 1023) *. 1.0000001)
  done;
  let dt = Util.secs_since t0 in
  if !acc < 0.0 then print_string "";
  dt

type t = { steal0 : int; loop0 : float }

let start () = { steal0 = steal_jiffies (); loop0 = arith_loop_s () }

(* Key/value pairs for the report. USER_HZ is 100 on Linux. *)
let finish t =
  let loop1 = arith_loop_s () in
  [
    ("host_steal_s", float_of_int (steal_jiffies () - t.steal0) /. 100.0);
    ("arith_loop_start_s", t.loop0);
    ("arith_loop_end_s", loop1);
  ]
