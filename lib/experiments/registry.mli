(** All reproducible experiments, keyed by the names used in DESIGN.md. *)

type t = {
  name : string;  (** CLI key, e.g. ["table1"]. *)
  paper_ref : string;  (** What in the paper this regenerates. *)
  print : Scope.t -> Format.formatter -> unit;
}

val all : t list
(** In presentation order: table1–table4, then E5–E9, then the extension
    (E10, sharing-vs-stealing) and ablation (E11) studies. *)

val find : string -> t option
(** Lookup by [name] (case-insensitive). *)

val models_at :
  lambda:float -> (string * (unit -> Meanfield.Model.t)) list
(** The same sixteen variants as {!models} with every arrival rate set to
    [lambda] (structural parameters keep their representative values; the
    batch model's event rate is scaled so its effective arrival rate is
    [lambda]). Solver-agreement tests sweep this across loads. *)

val models : (string * (unit -> Meanfield.Model.t)) list
(** Every mean-field model variant the registered experiments
    instantiate, under representative parameters. The test suite runs
    {!Meanfield.Selfcheck} over each entry (one test case per model), so
    adding a model here is how a new variant opts into the shared
    runtime diagnostics. [Static_ws] is excluded: a finite drain has no
    steady state for the fixed-point check. *)
