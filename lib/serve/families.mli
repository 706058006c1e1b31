(** Model families the prediction service can answer for.

    One family = one λ ↦ fixed-point curve: an entry of
    {!Meanfield.Catalog}, its parameters (defaults filled from the
    catalog, values canonicalised), and a {e pinned} truncation depth.
    The depth is part of the family rather than derived from λ (as the
    CLI does via [Tail.suggested_dim]) because the cache's two
    accelerations both need every state of a family to share one
    dimension: warm starts only transfer between equal-dim solves, and
    interpolating tail vectors componentwise requires the components to
    line up. *)

type t = {
  name : string;  (** Lowercased catalog name, e.g. ["multi-choice"]. *)
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
    (96 — deep enough that every catalog family's tail mass beyond it
    is far below the solver tolerance at the loads the service sees). *)

val resolve :
  ?depth:int -> name:string -> (string * float) list -> (t, string) result
(** [resolve ~name params] rejects a depth below 2, then validates
    [name] and [params] with {!Meanfield.Catalog.resolve} (unknown
    names and parameters, non-integral or too large integer values),
    canonicalises every value ({!Key.canon_float}), and returns the
    family. The [batch] family interprets λ as the {e effective}
    arrival rate (event rate × mean batch).
    @raise Invalid_argument from {!Key.canon_float} on a non-finite
    value. *)
