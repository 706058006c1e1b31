(* Model families the prediction service can answer for: every variant
   in Experiments.Registry.models_at, under the same representative
   defaults, with the truncation depth pinned per family instead of
   derived from λ. Pinning matters twice: warm starts only transfer
   between solves of equal dimension, and sub-grid interpolation needs
   all cached states of a family to line up componentwise. *)

open Meanfield

type t = {
  name : string;
  family : string;
  params : (string * float) list;
  depth : int;
  build : float -> Model.t;
  build_batch : float array -> Model.t array;
}

let default_depth = 96

type ptype = Int_param | Float_param

type pspec = { pname : string; ptype : ptype; default : float }

let ip pname default = { pname; ptype = Int_param; default }
let fp pname default = { pname; ptype = Float_param; default }

(* Builders receive the resolved parameter list (defaults filled,
   canonical values) plus the pinned depth, and close over λ. *)
let get ps k = List.assoc k ps
let geti ps k = int_of_float (List.assoc k ps)

let specs :
    (string * pspec list * ((string * float) list -> int -> float -> Model.t))
    list =
  [
    ("mm1", [], fun _ depth lambda -> Mm1.model ~lambda ~dim:depth ());
    ("simple", [], fun _ depth lambda -> Simple_ws.model ~lambda ~dim:depth ());
    ( "erlang",
      [ ip "stages" 2.0 ],
      fun ps depth lambda ->
        Erlang_ws.model ~lambda ~stages:(geti ps "stages") ~task_depth:depth ()
    );
    ( "threshold",
      [ ip "threshold" 4.0 ],
      fun ps depth lambda ->
        Threshold_ws.model ~lambda ~threshold:(geti ps "threshold") ~dim:depth
          () );
    ( "preemptive",
      [ ip "begin_at" 1.0; ip "offset" 3.0 ],
      fun ps depth lambda ->
        Preemptive_ws.model ~lambda ~begin_at:(geti ps "begin_at")
          ~offset:(geti ps "offset") ~dim:depth () );
    ( "repeated",
      [ fp "retry_rate" 1.0; ip "threshold" 2.0 ],
      fun ps depth lambda ->
        Repeated_steal_ws.model ~lambda ~retry_rate:(get ps "retry_rate")
          ~threshold:(geti ps "threshold") ~dim:depth () );
    ( "multisteal",
      [ ip "steal_count" 2.0; ip "threshold" 4.0 ],
      fun ps depth lambda ->
        Multi_steal_ws.model ~lambda ~steal_count:(geti ps "steal_count")
          ~threshold:(geti ps "threshold") ~dim:depth () );
    ( "multi-choice",
      [ ip "choices" 2.0; ip "threshold" 2.0 ],
      fun ps depth lambda ->
        Multi_choice_ws.model ~lambda ~choices:(geti ps "choices")
          ~threshold:(geti ps "threshold") ~dim:depth () );
    ( "combined",
      [ ip "threshold" 4.0; ip "choices" 2.0; ip "steal_count" 2.0 ],
      fun ps depth lambda ->
        Combined_ws.model ~lambda ~threshold:(geti ps "threshold")
          ~choices:(geti ps "choices") ~steal_count:(geti ps "steal_count")
          ~dim:depth () );
    ( "rebalance",
      [ fp "rate" 0.5 ],
      fun ps depth lambda ->
        Rebalance_ws.model_uniform_rate ~lambda ~rate:(get ps "rate")
          ~dim:depth () );
    ( "steal-half",
      [ ip "threshold" 2.0 ],
      fun ps depth lambda ->
        Steal_half_ws.model ~lambda ~threshold:(geti ps "threshold") ~dim:depth
          () );
    ( "transfer",
      [ fp "transfer_rate" 0.25; ip "threshold" 4.0; ip "stages" 1.0 ],
      fun ps depth lambda ->
        Transfer_ws.model ~lambda ~transfer_rate:(get ps "transfer_rate")
          ~threshold:(geti ps "threshold") ~stages:(geti ps "stages")
          ~depth () );
    ( "hetero",
      [
        fp "fraction_fast" 0.5;
        fp "mu_fast" 1.5;
        fp "mu_slow" 0.5;
        ip "threshold" 2.0;
      ],
      fun ps depth lambda ->
        Heterogeneous_ws.model ~lambda ~fraction_fast:(get ps "fraction_fast")
          ~mu_fast:(get ps "mu_fast") ~mu_slow:(get ps "mu_slow")
          ~threshold:(geti ps "threshold") ~depth () );
    ( "hyperexp",
      [ fp "p1" 0.5; fp "mu1" 2.0; fp "mu2" 0.8; ip "threshold" 2.0 ],
      fun ps depth lambda ->
        Hyperexp_ws.model ~lambda ~p1:(get ps "p1") ~mu1:(get ps "mu1")
          ~mu2:(get ps "mu2") ~threshold:(geti ps "threshold") ~depth () );
    ( "batch",
      [ fp "mean_batch" 2.0; ip "threshold" 2.0 ],
      (* λ is the effective arrival rate; the underlying event rate is
         λ / mean_batch, mirroring Registry.models_at. *)
      fun ps depth lambda ->
        Batch_ws.model
          ~event_rate:(lambda /. get ps "mean_batch")
          ~mean_batch:(get ps "mean_batch")
          ~threshold:(geti ps "threshold") ~dim:depth () );
    ( "supermarket",
      [ ip "choices" 2.0 ],
      fun ps depth lambda ->
        Supermarket.model ~lambda ~choices:(geti ps "choices") ~dim:depth () );
  ]

(* Families with a hand-batched column-wise derivative kernel: their
   batch builder attaches one shared [deriv_cols] closure, so
   [Drive.fixed_point_batch] runs the SoA kernel instead of bridging
   each column through the scalar derivative. Everything else falls
   back to [Array.map build] — the bridge adapter still shares every
   lockstep sweep, it just stages columns through scratch vectors. *)
let batch_specs :
    (string * ((string * float) list -> int -> float array -> Model.t array))
    list =
  [
    ("simple", fun _ depth lambdas -> Simple_ws.batch ~lambdas ~dim:depth ());
    ( "erlang",
      fun ps depth lambdas ->
        Erlang_ws.batch ~lambdas ~stages:(geti ps "stages") ~task_depth:depth
          () );
    ( "steal-half",
      fun ps depth lambdas ->
        Steal_half_ws.batch ~lambdas ~threshold:(geti ps "threshold")
          ~dim:depth () );
  ]

let names = List.map (fun (n, _, _) -> n) specs

let resolve ?(depth = default_depth) ~name params =
  let name = String.lowercase_ascii name in
  match List.find_opt (fun (n, _, _) -> String.equal n name) specs with
  | None -> Error (Printf.sprintf "unknown model %S" name)
  | Some (_, pspecs, mk) -> (
      if depth < 2 then Error "depth must be at least 2"
      else
        let unknown =
          List.filter
            (fun (k, _) ->
              not (List.exists (fun s -> String.equal s.pname k) pspecs))
            params
        in
        match unknown with
        | (k, _) :: _ ->
            Error (Printf.sprintf "unknown parameter %S for model %S" k name)
        | [] -> (
            let bad_int =
              List.filter
                (fun (k, v) ->
                  List.exists
                    (fun s ->
                      String.equal s.pname k
                      && (match s.ptype with
                         | Int_param -> not (Float.is_integer v)
                         | Float_param -> false))
                    pspecs)
                params
            in
            match bad_int with
            | (k, _) :: _ ->
                Error
                  (Printf.sprintf "parameter %S of model %S must be an integer"
                     k name)
            | [] ->
                let resolved =
                  List.map
                    (fun s ->
                      let v =
                        match List.assoc_opt s.pname params with
                        | Some v -> v
                        | None -> s.default
                      in
                      (s.pname, Key.canon_float v))
                    pspecs
                in
                let resolved =
                  List.sort
                    (fun (a, _) (b, _) -> String.compare a b)
                    resolved
                in
                let build = mk resolved depth in
                let build_batch =
                  match List.assoc_opt name batch_specs with
                  | Some mkb -> mkb resolved depth
                  | None -> Array.map build
                in
                Ok
                  {
                    name;
                    family = Key.family ~name ~params:resolved ~depth;
                    params = resolved;
                    depth;
                    build;
                    build_batch;
                  }))
