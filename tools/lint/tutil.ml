(* Shared helpers for the Typedtree (cmt-based) rules: canonical names
   for paths, float-type tests, and small expression chasers. *)

(* Module names as dune mangles them: the cmt for lib/sim/shard.ml is
   the unit [Wsim__Shard]. Canonical rule-facing names use the bare
   module: "Shard". *)
let bare_module name =
  let n = String.length name in
  let rec find i =
    if i + 1 >= n then None
    else if name.[i] = '_' && name.[i + 1] = '_' then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub name (i + 2) (n - i - 2)
  | None -> name

(* Last [Module.value] pair of a path: [Prob.Dist.exponential] and a
   local [Dist.exponential] both canonicalize to "Dist.exponential";
   an unqualified binding in module M canonicalizes to "M.<name>". *)
let canonical ~current_module (path : Path.t) =
  match path with
  | Pident id -> current_module ^ "." ^ Ident.name id
  | Pdot (prefix, name) ->
      let m =
        match prefix with
        | Pident id -> bare_module (Ident.name id)
        | Pdot (_, m) -> m
        | _ -> Path.name prefix
      in
      bare_module m ^ "." ^ name
  | Papply _ | Pextra_ty _ -> Path.name path

(* The full dotted name, [Stdlib] prefix stripped, for whitelist
   matching: [Stdlib.Float.equal] -> "Float.equal", a bare [min] ->
   "Stdlib.min" stays as printed. *)
let dotted (path : Path.t) =
  let s = Path.name path in
  match String.length s with
  | n when n > 7 && String.sub s 0 7 = "Stdlib." ->
      let rest = String.sub s 7 (n - 7) in
      if String.contains rest '.' then rest else s
  | _ -> s

(* ---------- types ---------- *)

let path_last (p : Path.t) =
  match p with Pident id -> Ident.name id | Pdot (_, n) -> n | _ -> ""

let path_penultimate (p : Path.t) =
  match p with
  | Pdot (Pident id, _) -> bare_module (Ident.name id)
  | Pdot (Pdot (_, m), _) -> m
  | _ -> ""

(* Exactly [float] (or its [Float.t] alias): the unboxed-vs-boxed
   distinction only exists for immediate floats, not containers. *)
let is_unboxed_float ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) ->
      Path.same p Predef.path_float || String.equal (Path.name p) "Float.t"
  | _ -> false

let rec is_float ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) ->
      Path.same p Predef.path_float || String.equal (Path.name p) "Float.t"
  | Tconstr (p, args, _) -> (
      (* containers whose structural comparison recurses into floats *)
      match path_last p with
      | "array" | "list" | "option" | "ref" -> List.exists is_float args
      | _ -> false)
  | Ttuple tys -> List.exists is_float tys
  | _ -> false

let is_arrow ty =
  match Types.get_desc ty with Tarrow _ -> true | _ -> false

let is_type_var ty =
  match Types.get_desc ty with Tvar _ | Tunivar _ -> true | _ -> false

(* Bigarray element accessors ([ArrayN.get] / [set] and their unsafe
   variants, also what the [.{ }] syntax expands to). *)
let is_bigarray_access prim_name =
  List.exists
    (fun prefix -> String.starts_with ~prefix prim_name)
    [
      "%caml_ba_ref_";
      "%caml_ba_set_";
      "%caml_ba_unsafe_ref_";
      "%caml_ba_unsafe_set_";
    ]

(* [ty] is an accessor's instantiated type, whose first parameter is
   [(elt, kind, layout) ArrayN.t]. When the kind or the layout is still
   a type variable, the compiler cannot specialise the access and calls
   the generic C stub, which boxes every element it reads or writes. *)
let bigarray_access_polymorphic ty =
  match Types.get_desc ty with
  | Tarrow (_, arg, _, _) -> (
      match Types.get_desc arg with
      | Tconstr (_, [ _; kind; layout ], _) ->
          is_type_var kind || is_type_var layout
      | _ -> false)
  | _ -> false

(* Does the type name [Mailbox.t] (any library prefix)? *)
let is_mailbox_type ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) ->
      String.equal (path_last p) "t"
      && String.equal (path_penultimate p) Config.spsc_module
  | _ -> false

(* ---------- expressions ---------- *)

let ident_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, vd) -> Some (p, vd)
  | _ -> None

(* The primitive name when the expression is a reference to an external
   declaration ([=], [compare], [Array.unsafe_get], ...). *)
let prim_of e =
  match ident_of e with
  | Some (_, { Types.val_kind = Val_prim p; _ }) -> Some p
  | _ -> None
