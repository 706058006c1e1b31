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
