type kind = Int | Float

type param = {
  pname : string;
  kind : kind;
  default : float;
  at_most : int option;
}

type family = {
  name : string;
  params : param list;
  build : (string * float) list -> ?depth:int -> float -> Model.t;
}

let ip ?at_most pname default = { pname; kind = Int; default; at_most }
let fp pname default = { pname; kind = Float; default; at_most = None }
let get ps k = List.assoc k ps
let geti ps k = int_of_float (List.assoc k ps)

(* A cold solve's cost grows quadratically in Erlang stages (the state
   holds depth levels per stage, and the sparsity probe makes dim + 1
   evaluations of an O(dim) derivative) and faster still in victim
   choices (each derivative row sums a [choices]-term power difference,
   and the solve needs more evaluations as [choices] grows). The bounds
   keep one cold solve to seconds at λ 0.98; 20 is Table 2's largest
   stage count. *)
let max_stages = 20
let max_choices = 32

let family name params build = { name; params; build }

let all =
  [
    family "mm1" [] (fun _ ?depth lambda -> Mm1.model ~lambda ?dim:depth ());
    family "simple" [] (fun _ ?depth lambda ->
        Simple_ws.model ~lambda ?dim:depth ());
    family "erlang" [ ip "stages" 2.0 ~at_most:max_stages ]
      (fun ps ?depth lambda ->
        Erlang_ws.model ~lambda ~stages:(geti ps "stages") ?task_depth:depth
          ());
    family "threshold" [ ip "threshold" 4.0 ] (fun ps ?depth lambda ->
        Threshold_ws.model ~lambda ~threshold:(geti ps "threshold") ?dim:depth
          ());
    family "preemptive" [ ip "begin_at" 1.0; ip "offset" 3.0 ]
      (fun ps ?depth lambda ->
        Preemptive_ws.model ~lambda ~begin_at:(geti ps "begin_at")
          ~offset:(geti ps "offset") ?dim:depth ());
    family "repeated" [ fp "retry_rate" 1.0; ip "threshold" 2.0 ]
      (fun ps ?depth lambda ->
        Repeated_steal_ws.model ~lambda ~retry_rate:(get ps "retry_rate")
          ~threshold:(geti ps "threshold") ?dim:depth ());
    family "multisteal" [ ip "steal_count" 2.0; ip "threshold" 4.0 ]
      (fun ps ?depth lambda ->
        Multi_steal_ws.model ~lambda ~steal_count:(geti ps "steal_count")
          ~threshold:(geti ps "threshold") ?dim:depth ());
    family "multi-choice"
      [ ip "choices" 2.0 ~at_most:max_choices; ip "threshold" 2.0 ]
      (fun ps ?depth lambda ->
        Multi_choice_ws.model ~lambda ~choices:(geti ps "choices")
          ~threshold:(geti ps "threshold") ?dim:depth ());
    family "combined"
      [
        ip "threshold" 4.0;
        ip "choices" 2.0 ~at_most:max_choices;
        ip "steal_count" 2.0;
      ]
      (fun ps ?depth lambda ->
        Combined_ws.model ~lambda ~threshold:(geti ps "threshold")
          ~choices:(geti ps "choices") ~steal_count:(geti ps "steal_count")
          ?dim:depth ());
    family "rebalance" [ fp "rate" 0.5 ] (fun ps ?depth lambda ->
        Rebalance_ws.model_uniform_rate ~lambda ~rate:(get ps "rate")
          ?dim:depth ());
    family "steal-half" [ ip "threshold" 2.0 ] (fun ps ?depth lambda ->
        Steal_half_ws.model ~lambda ~threshold:(geti ps "threshold")
          ?dim:depth ());
    family "transfer"
      [
        fp "transfer_rate" 0.25;
        ip "threshold" 4.0;
        ip "stages" 1.0 ~at_most:max_stages;
      ]
      (fun ps ?depth lambda ->
        Transfer_ws.model ~lambda ~transfer_rate:(get ps "transfer_rate")
          ~threshold:(geti ps "threshold") ~stages:(geti ps "stages") ?depth
          ());
    family "hetero"
      [
        fp "fraction_fast" 0.5;
        fp "mu_fast" 1.5;
        fp "mu_slow" 0.5;
        ip "threshold" 2.0;
      ]
      (fun ps ?depth lambda ->
        Heterogeneous_ws.model ~lambda ~fraction_fast:(get ps "fraction_fast")
          ~mu_fast:(get ps "mu_fast") ~mu_slow:(get ps "mu_slow")
          ~threshold:(geti ps "threshold") ?depth ());
    family "hyperexp"
      [ fp "p1" 0.5; fp "mu1" 2.0; fp "mu2" 0.8; ip "threshold" 2.0 ]
      (fun ps ?depth lambda ->
        Hyperexp_ws.model ~lambda ~p1:(get ps "p1") ~mu1:(get ps "mu1")
          ~mu2:(get ps "mu2") ~threshold:(geti ps "threshold") ?depth ());
    (* λ is the effective arrival rate; the underlying event rate is
       λ / mean_batch. *)
    family "batch" [ fp "mean_batch" 2.0; ip "threshold" 2.0 ]
      (fun ps ?depth lambda ->
        Batch_ws.model
          ~event_rate:(lambda /. get ps "mean_batch")
          ~mean_batch:(get ps "mean_batch")
          ~threshold:(geti ps "threshold") ?dim:depth ());
    family "supermarket" [ ip "choices" 2.0 ~at_most:max_choices ]
      (fun ps ?depth lambda ->
        Supermarket.model ~lambda ~choices:(geti ps "choices") ?dim:depth ());
  ]

let names = List.map (fun f -> f.name) all

let resolve ~name params =
  let name = String.lowercase_ascii name in
  match List.find_opt (fun f -> String.equal f.name name) all with
  | None -> Error (Printf.sprintf "unknown model %S" name)
  | Some fam -> (
      let fault (k, v) =
        match List.find_opt (fun p -> String.equal p.pname k) fam.params with
        | None ->
            Some (Printf.sprintf "unknown parameter %S for model %S" k name)
        | Some { kind = Int; _ } when not (Float.is_integer v) ->
            Some
              (Printf.sprintf "parameter %S of model %S must be an integer" k
                 name)
        | Some { at_most = Some m; _ } when v > float_of_int m ->
            Some
              (Printf.sprintf "parameter %S of model %S must be at most %d" k
                 name m)
        | Some _ -> None
      in
      match List.find_map fault params with
      | Some e -> Error e
      | None ->
          let value p =
            match List.assoc_opt p.pname params with
            | Some v -> v
            | None -> p.default
          in
          Ok
            ( fam,
              List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                (List.map (fun p -> (p.pname, value p)) fam.params) ))

let model ~name params lambda =
  match resolve ~name params with
  | Ok (fam, ps) -> fam.build ps lambda
  | Error e -> invalid_arg e
