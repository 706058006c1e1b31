(* Clock, small statistics and the result printer shared by the
   workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Metric values as JSON numbers with all their digits; non-finite
   values cannot be represented and print as 0 after a warning. *)
let json_num f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else begin
    Printf.eprintf "perfbench: non-finite metric value %g\n" f;
    "0"
  end

(* [basis] says what a value was computed from; empty for end-to-end
   metrics. *)
type metric = { name : string; unit_ : string; value : float; basis : string }

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
          (json_num m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())
