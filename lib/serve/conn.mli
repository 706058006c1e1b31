(** The daemon's connection loop.

    Each request line gets one response line, in order, through
    {!Protocol.handle_line} on the connection's own thread, so a
    single query is answered on the pool domain that hosts the
    connection; blank lines are skipped. Lines are read
    through a bounded reader: a line longer than {!max_line} bytes gets
    one [{"ok": false, "error": …}] response, the rest of it is
    discarded, and the connection keeps serving. *)

type t
(** What every connection of one daemon shares: the server, the pool,
    and how many requests each pool domain has answered (reported by
    the [stats] op as ["domain_requests"] and ["serving_domains"]).
    Thread- and domain-safe. *)

val max_line : int
(** Longest request line served, in bytes (1 MiB). *)

val create : pool:Parallel.Pool.t -> Server.t -> t
(** Batch requests fan out over [pool]; {!serve}'s [domain] indexes
    its domains. *)

val serve : t -> domain:int -> Unix.file_descr -> unit
(** [serve t ~domain fd] answers request lines from [fd] until the
    client closes it (a partial last line is dropped) or an I/O error
    occurs, then closes [fd]. [domain] is the index of the pool domain
    the calling thread runs on ({!Parallel.Pool.host} passes it), below
    the pool's domain count. Client input and I/O errors never make it
    raise. *)
