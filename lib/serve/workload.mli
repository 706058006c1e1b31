(** Deterministic heavy query stream for benchmarking and smoke tests.

    The daemon replay client and the in-process replay tests
    ([test/test_serve.ml]) both consume this stream, so they see the
    same traffic shape: queries pick a model uniformly and a λ from a
    zipf-ish distribution over a grid (hot rates repeat heavily — the
    cache's bread and butter), with a configurable share of off-grid
    λs landing strictly between grid points, the case only sub-grid
    interpolation can short-circuit.
    Generation uses a self-contained Lehmer LCG, so a given seed yields
    the identical stream on every OCaml version and platform. *)

type query = {
  model : string;  (** Family name, see {!Families.names}. *)
  params : (string * float) list;  (** Structural overrides (empty = registry defaults). *)
  lambda : float;  (** Canonical arrival rate. *)
}

val default_models : string list
(** Eight registry variants spanning the model zoo (single-tail and
    multi-class). *)

val stream :
  ?seed:int ->
  ?models:string list ->
  ?grid:int ->
  ?lo:float ->
  ?hi:float ->
  ?offgrid_share:float ->
  ?burst_share:float ->
  ?burst_len:int ->
  int ->
  query list
(** [stream n] is [n] queries. Defaults: [seed 42], [models
    default_models], a [grid 24]-point λ grid on [[lo 0.5, hi 0.98]],
    [offgrid_share 0.15]. With [burst_share > 0] (default 0), each base
    query is followed, with that probability, by a {e burst}: one model
    asked at [burst_len] (default 8) consecutive grid rates ascending
    from a random slot — the same-family miss trains a batch request's
    lockstep solve groups. Burst draws are guarded behind
    [burst_share > 0], so the default stream is byte-identical to
    streams recorded before bursts existed.
    @raise Invalid_argument on degenerate arguments. *)

val request_json : ?tail:int -> query -> Wire.t
(** The protocol request for a query (see {!Protocol}). *)
