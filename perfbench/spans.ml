(* In-memory spans for the traced run: one record per timed call into a
   layer, with its name, start, end, parent span and request id. Spans
   are only appended while the workload runs; self times and the span
   file are computed after it. *)

type span = {
  id : int;
  mutable name : string;
  start_ns : int;
  mutable stop_ns : int;
  parent : int;  (** [-1] for a root span. *)
  req : int;  (** Request id shared by every span of one request. *)
}

type t = { mutable spans : span array; mutable len : int; mutable open_ : int }

let create () = { spans = [||]; len = 0; open_ = -1 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

(* [with_span t ~req name f] runs [f ()] inside a span nested under the
   innermost open span; [label], when given, renames the span after the
   call from its result (e.g. a cache probe's outcome). *)
let with_span ?label t ~req name f =
  let s =
    { id = t.len; name; start_ns = Util.now_ns (); stop_ns = 0; parent = t.open_; req }
  in
  push t s;
  let outer = t.open_ in
  t.open_ <- s.id;
  let r =
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- Util.now_ns ();
        t.open_ <- outer)
      f
  in
  Option.iter (fun label -> s.name <- label r) label;
  r

let to_array t = Array.sub t.spans 0 t.len
let duration s = s.stop_ns - s.start_ns

(* Self time of every span: its duration minus the part its direct
   children cover. Children of one parent never overlap (calls nest), so
   the covered part is the sum of their durations. *)
let self_times spans =
  let self = Array.map duration spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) - duration s)
    spans;
  self

(* Self times in ns, grouped by span name. *)
let by_name spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let xs = Option.value ~default:[] (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (float_of_int self.(i) :: xs))
    spans;
  tbl

let write_tsv path spans =
  let self = self_times spans in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\treq\tname\tstart_ns\tstop_ns\tself_ns\n";
      Array.iteri
        (fun i s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\n" s.id s.parent s.req s.name
            s.start_ns s.stop_ns self.(i))
        spans)
