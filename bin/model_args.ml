(* Cmdliner terms that assemble a mean-field model or a simulator policy
   from command-line flags. The model's parameter flags are read off
   Meanfield.Catalog: one optional flag per parameter name, with "-" for
   "_", typed as the catalog types it. An unset model flag takes the
   family's own default, and a flag the family does not take fails with
   the daemon's "unknown parameter" error. The policy flags are spelled
   the same way but typed and defaulted by [policy_defaults]. *)

open Cmdliner
module Catalog = Meanfield.Catalog

let lambda =
  Arg.(value & opt float 0.9
       & info [ "lambda" ] ~docv:"RATE" ~doc:"Arrival rate per processor.")

(* Each family taking parameter [pname], with its spec, in catalog
   order. *)
let takers pname =
  List.filter_map
    (fun (f : Catalog.family) ->
      List.find_opt (fun (p : Catalog.param) -> String.equal p.pname pname)
        f.params
      |> Option.map (fun p -> (f.name, p)))
    Catalog.all

(* One optional flag per [(pname, kind)] in [specs]; the term is the
   list of those set, in [specs] order. *)
let flags ~doc specs =
  List.fold_right
    (fun (pname, kind) set ->
      let flag_info docv =
        Arg.info
          [ String.map (function '_' -> '-' | c -> c) pname ]
          ~docv ~doc:(doc pname)
      in
      let parsed =
        match kind with
        | Catalog.Int ->
            Term.(const (Option.map float_of_int)
                  $ Arg.(value & opt (some int) None & flag_info "N"))
        | Catalog.Float -> Arg.(value & opt (some float) None & flag_info "X")
      in
      Term.(const (fun v set ->
                match v with Some v -> (pname, v) :: set | None -> set)
            $ parsed $ set))
    specs (Term.const [])

let model_doc pname =
  let default (name, (p : Catalog.param)) =
    match p.at_most with
    | Some m -> Printf.sprintf "$(b,%s) %g (at most %d)" name p.default m
    | None -> Printf.sprintf "$(b,%s) %g" name p.default
  in
  "Model parameter; default per model: "
  ^ String.concat ", " (List.map default (takers pname))
  ^ "."

let model =
  let model_name =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) Catalog.names)) "simple"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            (Printf.sprintf "Mean-field model family; one of %s."
               (String.concat ", " Catalog.names)))
  in
  let specs =
    List.sort_uniq
      (fun (a, _) (b, _) -> String.compare a b)
      (List.concat_map
         (fun (f : Catalog.family) ->
           List.map (fun (p : Catalog.param) -> (p.pname, p.kind)) f.params)
         Catalog.all)
  in
  Term.(const (fun name lambda set -> Catalog.model ~name set lambda)
        $ model_name $ lambda $ flags ~doc:model_doc specs)

(* The simulator policies' parameters, typed, with their own defaults,
   which differ from some families' (threshold 2, rebalance rate 1). *)
let policy_defaults =
  Catalog.
    [ ("threshold", Int, 2.0); ("choices", Int, 2.0);
      ("steal_count", Int, 2.0); ("retry_rate", Float, 1.0);
      ("transfer_rate", Float, 0.25); ("begin_at", Int, 1.0);
      ("offset", Int, 3.0); ("rate", Float, 1.0) ]

let policy_default pname =
  let _, _, v =
    List.find (fun (k, _, _) -> String.equal k pname) policy_defaults
  in
  v

let policy_names =
  [ "none"; "simple"; "onempty"; "preemptive"; "repeated"; "transfer";
    "rebalance"; "steal-half"; "ring" ]

let build_policy name set radius : Wsim.Policy.t =
  let get k =
    match List.assoc_opt k set with
    | Some v -> v
    | None -> policy_default k
  in
  let geti k = int_of_float (get k) in
  match name with
  | "none" -> Wsim.Policy.No_stealing
  | "simple" -> Wsim.Policy.simple
  | "onempty" ->
      Wsim.Policy.On_empty
        {
          threshold = geti "threshold";
          choices = geti "choices";
          steal_count = geti "steal_count";
        }
  | "preemptive" ->
      Wsim.Policy.Preemptive
        { begin_at = geti "begin_at"; offset = geti "offset" }
  | "repeated" ->
      Wsim.Policy.Repeated
        { retry_rate = get "retry_rate"; threshold = geti "threshold" }
  | "transfer" ->
      Wsim.Policy.Transfer
        { transfer_rate = get "transfer_rate"; threshold = geti "threshold";
          stages = 1 }
  | "steal-half" ->
      Wsim.Policy.Steal_half
        { threshold = geti "threshold"; choices = geti "choices" }
  | "ring" ->
      Wsim.Policy.Ring_steal { threshold = geti "threshold"; radius }
  | "rebalance" ->
      let rate = get "rate" in
      Wsim.Policy.Rebalance { rate = (fun _ -> rate) }
  | other -> invalid_arg ("unknown policy " ^ other)

let policy =
  let policy_name =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) policy_names)) "simple"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            (Printf.sprintf "Stealing policy; one of %s."
               (String.concat ", " policy_names)))
  in
  let radius =
    Arg.(value & opt int 2
         & info [ "radius" ] ~docv:"R"
             ~doc:"Ring radius for locality-restricted stealing.")
  in
  let doc pname =
    Printf.sprintf "Policy parameter; default %g." (policy_default pname)
  in
  Term.(const build_policy $ policy_name
        $ flags ~doc (List.map (fun (k, kind, _) -> (k, kind)) policy_defaults)
        $ radius)
