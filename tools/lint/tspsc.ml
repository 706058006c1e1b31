(* R6 spsc-ownership: machine-checks the mailbox discipline the §3.2
   sharded simulator's correctness argument rests on (cluster.ml). Each
   (src, dst) mailbox is single-producer/single-consumer per round with
   the pool barrier as the happens-before edge; that only holds if

     - producer ops (push) reach a Mailbox.t exclusively through the
       sending shard's own [outboxes] row, and
     - consumer ops (drain) exclusively through
       [mailboxes.(src).(own sid)] — the column the shard owns.

   The rule classifies the mailbox argument of every Mailbox call by
   its access path, chasing one level of local [let box = ...]
   bindings. Anything it cannot prove is reported: the discipline must
   be syntactically evident, which is exactly what makes the
   happens-before argument auditable. *)

let array_get_prims = [ "%array_safe_get"; "%array_unsafe_get" ]

let array_get (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, [ (_, Some arr); (_, Some idx) ]) -> (
      match Tutil.prim_of f with
      | Some p when List.mem p.prim_name array_get_prims -> Some (arr, idx)
      | _ -> None)
  | _ -> None

let field_named name (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> String.equal lbl.lbl_name name
  | _ -> false

(* Resolve [let box = sh.outboxes.(k) in ... box ...] to the defining
   expression. Bindings are collected per structure, unscoped — good
   enough for the flat shard code and fixtures this guards. *)
let rec chase lets depth (e : Typedtree.expression) =
  if depth = 0 then e
  else
    match e.exp_desc with
    | Texp_ident (Pident id, _, _) -> (
        match Hashtbl.find_opt lets (Ident.name id) with
        | Some def -> chase lets (depth - 1) def
        | None -> e)
    | _ -> e

type endpoint =
  | Producer_row  (* <record>.outboxes.(dst) *)
  | Matrix of bool  (* mailboxes.(src).(dst); true iff dst = own sid *)
  | Unknown

let classify lets e =
  let e = chase lets 4 e in
  match array_get e with
  | None -> Unknown
  | Some (arr, dst_idx) -> (
      let arr = chase lets 4 arr in
      if field_named Config.spsc_producer_field arr then Producer_row
      else
        match array_get arr with
        | Some (matrix, _src_idx)
          when field_named Config.spsc_matrix_field (chase lets 4 matrix) ->
            Matrix (field_named Config.spsc_owner_field (chase lets 4 dst_idx))
        | _ -> Unknown)

let mailbox_arg args =
  List.find_map
    (fun (_, arg) ->
      match arg with
      | Some (e : Typedtree.expression) when Tutil.is_mailbox_type e.exp_type
        ->
          Some e
      | _ -> None)
    args

let check ~file (str : Typedtree.structure) =
  if not (List.exists (Config.matches file) Config.spsc_scope) then []
  else begin
    let lets = Hashtbl.create 32 in
    let collect_lets (it : Tast_iterator.iterator) vb =
      (match vb.Typedtree.vb_pat.pat_desc with
      | Tpat_var (id, _) -> Hashtbl.replace lets (Ident.name id) vb.vb_expr
      | _ -> ());
      Tast_iterator.default_iterator.value_binding it vb
    in
    let pre = { Tast_iterator.default_iterator with value_binding = collect_lets } in
    pre.structure pre str;
    let out = ref [] in
    let diag loc msg =
      out := Diag.of_location ~rule:Config.rule_spsc ~file loc msg :: !out
    in
    let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply (f, args) -> (
          match Tutil.ident_of f with
          | Some (p, _)
            when String.equal (Tutil.path_penultimate p) Config.spsc_module
            -> (
              let op = Tutil.path_last p in
              match mailbox_arg args with
              | None -> ()
              | Some box -> (
                  let where = classify lets box in
                  if List.mem op Config.spsc_producer_ops then
                    match where with
                    | Producer_row -> ()
                    | Matrix _ ->
                        diag box.exp_loc
                          (op
                         ^ " through the shared matrix bypasses the sending \
                            shard's outboxes row; only the producer's own \
                            row is safe to write before the barrier")
                    | Unknown ->
                        diag box.exp_loc
                          ("cannot prove this " ^ op
                         ^ " targets the sending shard's own outboxes \
                            endpoint; route it through <shard>.outboxes.(dst)")
                  else if List.mem op Config.spsc_consumer_ops then
                    match where with
                    | Matrix true -> ()
                    | Matrix false ->
                        diag box.exp_loc
                          (op
                         ^ " of a mailbox column this shard does not own; \
                            consumers may only read mailboxes.(src).(own sid)")
                    | Producer_row | Unknown ->
                        diag box.exp_loc
                          ("cannot prove this " ^ op
                         ^ " reads the owning shard's column; consumers drain \
                            mailboxes.(src).(<own sid>)")
                  else if not (List.mem op Config.spsc_neutral_ops) then
                    diag e.exp_loc
                      ("unclassified Mailbox operation " ^ op
                     ^ "; add it to the spsc config as producer, consumer or \
                        neutral")))
          | _ -> ())
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.structure it str;
    List.rev !out
  end
