(** Model families the prediction service can answer for.

    One family = one λ ↦ fixed-point curve: a model variant from
    [Experiments.Registry], its structural parameters (defaults filled
    from the registry's representative values), and a {e pinned}
    truncation depth. The depth is part of the family rather than
    derived from λ (as the CLI does via [Tail.suggested_dim]) because
    the cache's two accelerations both need every state of a family to
    share one dimension: warm starts only transfer between equal-dim
    solves, and interpolating tail vectors componentwise requires the
    components to line up. *)

type t = {
  name : string;  (** Lowercased registry name, e.g. ["multi-choice"]. *)
  family : string;  (** Canonical cache-key string, see {!Key.family}. *)
  params : (string * float) list;
      (** Canonical structural parameters, sorted by name, defaults
          filled. *)
  depth : int;  (** Pinned truncation depth. *)
  build : float -> Meanfield.Model.t;
      (** [build λ] instantiates the family's model at arrival rate λ.
          Raises [Invalid_argument] (from the underlying builder) when λ
          or a parameter is out of the model's domain. *)
  build_batch : float array -> Meanfield.Model.t array;
      (** One model per λ, sharing the family's pinned depth, for
          {!Meanfield.Drive.fixed_point_batch}. Families with a
          hand-batched [deriv_cols] kernel (simple, erlang, steal-half)
          attach it here; the rest bridge each column through the
          scalar [build]. Hand-batched members share kernel scratch and
          are positional — solve each returned batch whole, one at a
          time. *)
}

val default_depth : int
(** Truncation depth used when the server is not configured otherwise
    (96 — deep enough that every registry variant's tail mass beyond it
    is far below the solver tolerance at the loads the service sees). *)

val names : string list
(** All sixteen family names, in registry order. *)

val resolve :
  ?depth:int -> name:string -> (string * float) list -> (t, string) result
(** [resolve ~name params] validates [name] against the registry,
    rejects unknown parameters and non-integral values for integer
    parameters, fills defaults, canonicalises every value
    ({!Key.canon_float}), and returns the family. The λ-dependent
    [batch] family interprets λ as the {e effective} arrival rate
    (event rate × mean batch), matching [Registry.models_at]. *)
