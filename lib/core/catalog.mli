(** The model families: one entry per mean-field variant, with its
    parameters, their defaults and the builder that instantiates it.

    The paper treats every variant as a corner of one parameterised
    density-dependent jump process; this table is where those corners
    are named. The CLI generates its [--model] names and parameter flags
    from it, the selfcheck and solver tests iterate it, and the
    prediction service ([Serve.Families]) resolves every query through
    it, so one entry here registers a family with all three. *)

type kind = Int | Float

type param = {
  pname : string;  (** As the wire spells it, e.g. ["steal_count"]. *)
  kind : kind;
  default : float;
  at_most : int option;
      (** Upper bound of an integer parameter whose value scales the
          cost of a solve (Erlang stages, victim choices). *)
}

type family = {
  name : string;  (** Lowercase, e.g. ["multi-choice"]. *)
  params : param list;  (** In declaration order. *)
  build : (string * float) list -> ?depth:int -> float -> Model.t;
      (** [build ps ?depth λ] instantiates the family at arrival rate λ.
          [ps] holds every parameter of the family, as {!resolve}
          returns it. Without [depth] the model sizes its truncation
          from λ ({!Tail.suggested_dim}); with it the depth is pinned.
          For [batch], λ is the arrival rate (event rate × mean batch).
          Raises [Invalid_argument] when λ or a parameter is outside
          the model's domain. *)
}

val all : family list
(** All sixteen families. *)

val names : string list
(** [all]'s names, in the same order. *)

val resolve :
  name:string ->
  (string * float) list ->
  (family * (string * float) list, string) result
(** [resolve ~name ps] lowercases [name], then rejects an unknown name,
    and the first parameter in [ps] that the family does not take, that
    is non-integral for an [Int] parameter or that exceeds its
    [at_most]. Otherwise it returns the family and all its parameters,
    sorted by name, with the ones [ps] leaves out set to their
    defaults. *)

val model : name:string -> (string * float) list -> float -> Model.t
(** [model ~name ps λ] resolves and builds in one step, at the depth
    the model derives from λ.
    @raise Invalid_argument with {!resolve}'s error, or the model's own
    domain error. *)
