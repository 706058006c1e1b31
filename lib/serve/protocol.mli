(** Newline-delimited JSON protocol for the prediction service.

    One request per line, one response per line:

    - [{"model": "threshold", "lambda": 0.9, "params": {"threshold": 4},
      "tail": 8}] — a single query. ["params"] (structural parameters,
      defaults from {!Meanfield.Catalog}) and ["tail"]
      (include the first [k] state components as ["state"]) are
      optional.
    - [[q1, q2, …]] — a batch of such queries, answered through
      {!Server.answer_batch}: each family's distinct miss λs form one
      lockstep solve, duplicates are served single-flight, and distinct
      families fan out over the pool. The response is an array in
      request order.
    - [{"op": "stats"}] — counters (including the requests each
      serving domain answered when the caller passes
      [domain_requests]); [{"op": "ping"}] — liveness.

    Every failure (parse error, unknown model or parameter, model
    domain violation) maps to [{"ok": false, "error": …}] — on the
    matching batch slot for batches — and never tears down the
    connection. *)

val handle_line :
  ?pool:Parallel.Pool.t ->
  ?domain_requests:(unit -> int array) ->
  Server.t ->
  string ->
  string
(** [handle_line server line] parses one request line and returns the
    response line (without trailing newline). Never raises on malformed
    input. A single query is answered by {!Server.answer} on the
    calling thread; a batch by {!Server.answer_batch} over [pool].
    [domain_requests] gives the requests answered so far per serving
    domain: [stats] reports them as ["domain_requests"], and the
    domains with at least one as ["serving_domains"]. *)

val handle_value :
  ?pool:Parallel.Pool.t ->
  ?domain_requests:(unit -> int array) ->
  Server.t ->
  Wire.t ->
  Wire.t
(** Same, on already-parsed values — the in-process path the bench
    kernel uses to measure protocol cost without socket noise. *)
