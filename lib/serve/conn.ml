(* One client connection of the daemon: newline-delimited requests in,
   one response line per request line out, in order. Lines are read
   through a bounded reader, so a client that never sends a newline
   costs at most [max_line] bytes of buffer, not unbounded memory.

   Concurrency contract: a [t] is shared by every connection the daemon
   hosts, on every pool domain. The server and pool are domain-safe on
   their own; the per-domain request tally is touched only under
   [lock]. A line reader belongs to its connection's thread. *)

let max_line = 1 lsl 20

type t = {
  server : Server.t;
  pool : Parallel.Pool.t;
  lock : Mutex.t;
  answered : int array;  (* requests answered per pool domain index *)
}

let create ~pool server =
  {
    server;
    pool;
    lock = Mutex.create ();
    answered = Array.make (Parallel.Pool.domains pool) 0;
  }

let answered t = Mutex.protect t.lock (fun () -> Array.copy t.answered)

type line = Line of string | Too_long

(* [line_reader fd ()] is the next complete line of [fd], or [None] at
   end of input; a partial last line is dropped, as it was never a
   request. The buffers are the connection's own. *)
let line_reader fd =
  let chunk = Bytes.create 4096 in
  let pos = ref 0 (* next unread byte of [chunk] *)
  and len = ref 0 (* bytes the last read put in [chunk] *) in
  let line = Buffer.create 1024 (* the line so far, <= max_line bytes *)
  and overlong = ref false (* past max_line: discard to the newline *) in
  let rec next () =
    if !pos = !len then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | k ->
          pos := 0;
          len := k;
          next ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
    else begin
      let stop = ref !pos in
      while !stop < !len && Bytes.get chunk !stop <> '\n' do
        incr stop
      done;
      let seg = !stop - !pos in
      if not !overlong then
        if Buffer.length line + seg > max_line then begin
          overlong := true;
          Buffer.reset line
        end
        else Buffer.add_subbytes line chunk !pos seg;
      if !stop = !len then begin
        pos := !len;
        next ()
      end
      else begin
        pos := !stop + 1;
        let l = if !overlong then Too_long else Line (Buffer.contents line) in
        overlong := false;
        Buffer.clear line;
        Some l
      end
    end
  in
  next

let error_line msg =
  Wire.to_string (Wire.Obj [ ("ok", Wire.Bool false); ("error", Wire.Str msg) ])

let too_long =
  error_line
    (Printf.sprintf "request line longer than %d bytes; discarded" max_line)

(* Every request line gets a response, no matter what: an exception
   Protocol does not map itself becomes ok:false instead of silently
   hanging the client. *)
let respond t line =
  match
    Protocol.handle_line ~pool:t.pool
      ~domain_requests:(fun () -> answered t)
      t.server line
  with
  | response -> response
  | exception e -> error_line ("internal error: " ^ Printexc.to_string e)

let serve t ~domain fd =
  let read_line = line_reader fd in
  let oc = Unix.out_channel_of_descr fd in
  let reply response =
    output_string oc response;
    output_char oc '\n';
    flush oc;
    Mutex.protect t.lock (fun () ->
        t.answered.(domain) <- t.answered.(domain) + 1)
  in
  let rec loop () =
    match read_line () with
    | None -> ()
    | Some Too_long ->
        reply too_long;
        loop ()
    | Some (Line line) ->
        if not (String.equal (String.trim line) "") then reply (respond t line);
        loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with Unix.Unix_error _ | Sys_error _ -> ())
