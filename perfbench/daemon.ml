(* The release daemon as a child process, and the single-process client
   that drives it over its unix socket. *)

type t = { pid : int; socket : string }

let live = ref []

let stop d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun p -> p.pid <> d.pid) !live;
  try Sys.remove d.socket with Sys_error _ -> ()

let () = at_exit (fun () -> List.iter stop !live)

let spawn ~exe ~socket ~domains ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let stdin_ = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close stdin_)
      (fun () ->
        Unix.create_process exe
          [| exe; "daemon"; "--socket"; socket; "--domains"; string_of_int domains |]
          stdin_ out out)
  in
  let d = { pid; socket } in
  live := d :: !live;
  d

let peak_rss_mb d = Util.peak_rss_mb (string_of_int d.pid)

(* ---- connections ---- *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

let send c (line : Bytes.t) = write_all c.fd line 0 (Bytes.length line)

(* Connect, retrying while the daemon comes up (a fresh fd per attempt:
   POSIX leaves a socket unspecified after a failed connect). *)
let connect d ~timeout_s =
  let t0 = Util.now_ns () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited during start-up");
        if Util.secs_since t0 > timeout_s then failwith "daemon did not come up";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Complete lines already buffered, oldest first; keeps the remainder. *)
let take_lines c =
  let s = Buffer.contents c.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.pending;
      Buffer.add_string c.pending (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)

let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "daemon closed the connection"
  | k -> Buffer.add_subbytes c.pending c.chunk 0 k

let read_line c =
  let rec go () =
    match take_lines c with
    | [] -> fill c; go ()
    | [ l ] -> l
    | _ -> failwith "unexpected extra response line"
  in
  go ()

let request c line =
  send c (Bytes.of_string (line ^ "\n"));
  read_line c

(* ---- closed loop ----

   Each connection has at most one request in flight and sends the next
   request of the shared sequence as soon as its answer arrives. Request
   bytes are encoded before the loop starts and responses are only
   stored, so the client's own work in the timed path is a write, a
   read and two clock reads. *)

type loop_result = {
  responses : string array;
  latency_us : float array;  (** Per request, write start to full response line. *)
  wall_s : float;
}

let closed_loop conns (lines : string array) =
  let n = Array.length lines in
  let payload = Array.map (fun l -> Bytes.of_string (l ^ "\n")) lines in
  let responses = Array.make n "" in
  let latency_us = Array.make n 0.0 in
  let k = Array.length conns in
  let inflight = Array.make k (-1) and sent_at = Array.make k 0 in
  let next = ref 0 and answered = ref 0 in
  let send_next ci =
    if !next < n then begin
      let i = !next in
      incr next;
      inflight.(ci) <- i;
      sent_at.(ci) <- Util.now_ns ();
      send conns.(ci) payload.(i)
    end
    else inflight.(ci) <- -1
  in
  let t0 = Util.now_ns () in
  Array.iteri (fun ci _ -> send_next ci) conns;
  while !answered < n do
    let fds =
      List.filter_map
        (fun ci -> if inflight.(ci) >= 0 then Some conns.(ci).fd else None)
        (List.init k Fun.id)
    in
    let ready =
      match Unix.select fds [] [] (-1.0) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let ci = ref 0 in
        while conns.(!ci).fd <> fd do incr ci done;
        let ci = !ci in
        fill conns.(ci);
        let t = Util.now_ns () in
        match take_lines conns.(ci) with
        | [] -> ()
        | [ line ] ->
            let i = inflight.(ci) in
            latency_us.(i) <- float_of_int (t - sent_at.(ci)) *. 1e-3;
            send_next ci;
            responses.(i) <- line;
            incr answered
        | _ -> failwith "unexpected extra response line")
      ready
  done;
  { responses; latency_us; wall_s = Util.secs_since t0 }
