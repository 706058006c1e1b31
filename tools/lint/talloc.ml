(* R5 zero-alloc: interprocedural allocation checker over the cmt set.

   The PR 3 hot path ("~0 minor words per event") is what makes the
   n >= 1e7 sharded runs affordable; until now it was guarded only by a
   runtime-calibrated Gc budget test. This pass proves it statically:

   - summarize: every top-level function in every scanned unit gets a
     summary = (local allocation sites, resolved call edges). A site is
     a Typedtree allocation point: record/tuple/constructor/closure
     construction, array literals, ref cells, partial application,
     allocating external calls, float stores into mixed records (the
     store boxes), floats passed to polymorphic min/max (the call
     boxes), Bigarray accesses whose kind or layout is a type variable
     (the generic accessor boxes). Format strings need no special
     case: the elaborated CamlinternalFormat constructors are ordinary
     construct sites. A call edge also records whether the call returns
     a float, and every function whether it is [@inline]: without
     flambda a float returned from a call that is not inlined is boxed,
     so such an edge is a site of the caller.
   - check: depth-first reachability from the configured hot-path
     roots over the cross-module call graph. Reached sites are
     reported at their own file:line (so ordinary line suppression
     applies) with the root and call chain in the message. A call with
     no summary and no whitelist entry is assumed allocating.

   The per-function summary is the lattice element; reachability is
   the least fixed point of summary union over the call graph — see
   DESIGN.md §5.10. Deliberate imprecision, documented: calls through
   function parameters or record fields (higher-order) are not
   followed — every closure a hot path could receive is itself rooted
   (e.g. Cluster.handle is a root, not just Packed_engine.run), and
   constructing such a closure inside a hot path is flagged anyway. *)

type site = { sloc : Location.t; what : string }

type call = {
  callee : string;
  cloc : Location.t;
  returns_float : bool;  (* the application's result is a bare float *)
}

type summary = {
  name : string;  (* canonical "Module.fn" *)
  def_loc : Location.t;  (* binding site, for function-level allow *)
  inline : bool;  (* [@inline] / [@inline always] on the binding *)
  sites : site list;
  calls : call list;
}

let loc_file (loc : Location.t) = loc.loc_start.pos_fname
let loc_line (loc : Location.t) = loc.loc_start.pos_lnum

(* ---------- per-function summaries ---------- *)

(* Strip the curried head: [let f x ~y = function A -> ... ] is nested
   Texp_function layers, none of which allocates at call time (the
   closure for a top-level function is static). Everything past the
   head — including guards — is body. *)
let rec bodies_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.concat_map
        (fun (c : Typedtree.value Typedtree.case) ->
          (match c.c_guard with Some g -> [ g ] | None -> [])
          @ bodies_of c.c_rhs)
        cases
  | _ -> [ e ]

let is_function (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let float_label (lbl : Types.label_description) =
  Tutil.is_unboxed_float lbl.lbl_arg
  && match lbl.lbl_repres with Record_float -> false | _ -> true

(* [let[@inline] f ...] or [let f = fun[@inline] ...]; an explicit
   [@inline never] does not count. *)
let inline_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "inline" | "ocaml.inline" -> (
          match a.attr_payload with
          | PStr [] -> true
          | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
              match e.pexp_desc with
              | Pexp_ident { txt = Lident "always"; _ } -> true
              | _ -> false)
          | _ -> false)
      | _ -> false)
    attrs

let classify_apply ~current_module ~locals (f : Typedtree.expression) args =
  match Tutil.prim_of f with
  | Some p ->
      if List.mem p.prim_name Config.allocating_builtins then
        `Site ("allocating builtin " ^ p.prim_name ^ " (ref cell)")
      else if
        Tutil.is_bigarray_access p.prim_name
        && Tutil.bigarray_access_polymorphic f.exp_type
      then
        `Site
          ("polymorphic Bigarray access " ^ p.prim_name
         ^ ": the kind or layout is a type variable, so the generic \
            accessor boxes every element; annotate the array's type")
      else if String.length p.prim_name > 0 && p.prim_name.[0] = '%' then
        `Ok (* compiler builtin, unboxed/immediate *)
      else if p.prim_alloc then
        `Site ("external " ^ p.prim_name ^ " may allocate")
      else `Ok (* [@@noalloc] external *)
  | None -> (
      match Tutil.ident_of f with
      | Some (path, _) -> (
          let dotted = Tutil.dotted path in
          if List.mem dotted Config.nonalloc_functions then `Ok
          else if List.mem dotted Config.poly_compare_functions then
            if
              List.exists
                (fun (_, a) ->
                  match a with
                  | Some (e : Typedtree.expression) ->
                      Tutil.is_float e.exp_type
                  | None -> false)
                args
            then
              `Site
                ("float argument boxed at polymorphic " ^ dotted
               ^ "; use a Float.min/max-style monomorphic compare")
            else `Ok
          else
            match path with
            | Path.Pident id when not (Hashtbl.mem locals (Ident.name id)) ->
                `Indirect (* parameter / local binding: not followed *)
            | _ -> `Call (Tutil.canonical ~current_module path))
      | None -> `Indirect (* applying a field / computed function *))

let collect_body ~current_module ~locals body =
  let sites = ref [] and calls = ref [] in
  let site loc what = sites := { sloc = loc; what } :: !sites in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_function _ ->
        site e.exp_loc "closure construction (captures its environment)"
    | Texp_record _ -> site e.exp_loc "record construction"
    | Texp_tuple _ -> site e.exp_loc "tuple construction"
    | Texp_construct (_, cd, args) when args <> [] ->
        site e.exp_loc ("constructor application " ^ cd.cstr_name)
    | Texp_variant (_, Some _) -> site e.exp_loc "polymorphic variant"
    | Texp_array _ -> site e.exp_loc "array literal"
    | Texp_lazy _ -> site e.exp_loc "lazy thunk"
    | Texp_object _ -> site e.exp_loc "object construction"
    | Texp_pack _ -> site e.exp_loc "first-class module"
    | Texp_letop _ -> site e.exp_loc "binding operator (closures)"
    | Texp_new _ -> site e.exp_loc "object instantiation"
    | Texp_setfield (_, _, lbl, _) when float_label lbl ->
        site e.exp_loc
          ("float store into mixed-record field " ^ lbl.lbl_name
         ^ " boxes the float; use a flat all-float record")
    | Texp_apply (f, args) -> (
        (match classify_apply ~current_module ~locals f args with
        | `Ok | `Indirect -> ()
        | `Site what -> site e.exp_loc what
        | `Call callee ->
            calls :=
              {
                callee;
                cloc = e.exp_loc;
                returns_float = Tutil.is_unboxed_float e.exp_type;
              }
              :: !calls);
        if Tutil.is_arrow e.exp_type then
          site e.exp_loc "partial application allocates a closure")
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  (List.rev !sites, List.rev !calls)

(* Top-level (and submodule-level) functions of one unit. [modname] is
   the bare module name used in canonical keys. *)
let summarize ~modname (str : Typedtree.structure) =
  let out = ref [] in
  let rec structure ~current_module (str : Typedtree.structure) =
    (* names first, so intra-module forward/self references resolve *)
    let locals = Hashtbl.create 32 in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) when is_function vb.vb_expr ->
                    Hashtbl.replace locals (Ident.name id) ()
                | _ -> ())
              vbs
        | _ -> ())
      str.str_items;
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) when is_function vb.vb_expr ->
                    let sites, calls =
                      List.fold_left
                        (fun (s, c) body ->
                          let s', c' =
                            collect_body ~current_module ~locals body
                          in
                          (s @ s', c @ c'))
                        ([], [])
                        (bodies_of vb.vb_expr)
                    in
                    out :=
                      {
                        name = current_module ^ "." ^ Ident.name id;
                        def_loc = vb.vb_loc;
                        inline =
                          inline_attr vb.vb_attributes
                          || inline_attr vb.vb_expr.exp_attributes;
                        sites;
                        calls;
                      }
                      :: !out
                | _ -> ())
              vbs
        | Tstr_module
            {
              mb_id = Some id;
              mb_expr = { mod_desc = Tmod_structure sub; _ };
              _;
            } ->
            structure ~current_module:(Ident.name id) sub
        | _ -> ())
      str.str_items
  in
  structure ~current_module:modname str;
  List.rev !out

(* ---------- reachability ---------- *)

let build_table summaries =
  let table = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace table s.name s) summaries;
  table

let chain_string chain =
  let names = List.rev chain in
  let n = List.length names in
  let names =
    if n <= 8 then names
    else List.filteri (fun i _ -> i < 7) names @ [ "..." ]
  in
  String.concat " -> " names

(* Walk the call graph from [roots]; report every reachable site.
   [allowed ~file ~line] implements the function-level escape hatch: a
   [(* lint: allow zero-alloc: <why> *)] on (or above) a function's
   [let] line waives that function's local sites — growth paths keep
   one justification instead of one per Array.make line — while its
   callees are still traversed. *)
let check ?(allowed = fun ~file:_ ~line:_ -> false) ~roots table =
  let out = ref [] in
  let reported = Hashtbl.create 64 in
  let visited = Hashtbl.create 64 in
  let report root chain { sloc; what } =
    let key = (loc_file sloc, loc_line sloc, sloc.loc_start.pos_cnum, what) in
    if not (Hashtbl.mem reported key) then begin
      Hashtbl.add reported key ();
      out :=
        Diag.of_location ~rule:Config.rule_zero_alloc ~file:(loc_file sloc)
          sloc
          (Printf.sprintf "%s on hot path %s (via %s)" what root
             (chain_string chain))
        :: !out
    end
  in
  let rec dfs root chain name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.add visited name ();
      match Hashtbl.find_opt table name with
      | None -> ()
      | Some s ->
          let chain = name :: chain in
          let waived =
            allowed ~file:(loc_file s.def_loc) ~line:(loc_line s.def_loc)
          in
          if not waived then List.iter (report root chain) s.sites;
          List.iter
            (fun { callee; cloc; returns_float } ->
              match Hashtbl.find_opt table callee with
              | Some c ->
                  if returns_float && (not c.inline) && not waived then
                    report root chain
                      {
                        sloc = cloc;
                        what =
                          "call to " ^ callee
                          ^ " returns a boxed float (" ^ callee
                          ^ " is not [@inline])";
                      };
                  dfs root chain callee
              | None ->
                  if not waived then
                    (* an unresolved callee is a local site of this
                       function, so the function-level allow covers it *)
                    report root chain
                      {
                        sloc = cloc;
                        what =
                          "call to " ^ callee
                          ^ " (no summary in the scanned units; assumed \
                             allocating)";
                      })
            s.calls
    end
  in
  List.iter
    (fun root ->
      if Hashtbl.mem table root then dfs root [] root
      else
        out :=
          Diag.v ~rule:Config.rule_zero_alloc ~file:"tools/lint/config.ml"
            ~line:1 ~col:0
            (Printf.sprintf
               "hot-path root %s not found in any scanned compilation unit \
                (stale zero_alloc_roots entry?)"
               root)
          :: !out)
    roots;
  List.sort Diag.compare_pos !out
