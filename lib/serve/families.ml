(* Model families the prediction service can answer for: every entry of
   Meanfield.Catalog, with its parameters canonicalised and the
   truncation depth pinned per family instead of derived from λ.
   Pinning matters twice: warm starts only transfer between solves of
   equal dimension, and sub-grid interpolation needs all cached states
   of a family to line up componentwise. *)

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

let geti ps k = int_of_float (List.assoc k ps)

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

let resolve ?(depth = default_depth) ~name params =
  if depth < 2 then Error "depth must be at least 2"
  else
    match Catalog.resolve ~name params with
    | Error e -> Error e
    | Ok (fam, resolved) ->
        let name = fam.Catalog.name in
        let params = List.map (fun (k, v) -> (k, Key.canon_float v)) resolved in
        let build = fam.Catalog.build params ~depth in
        let build_batch =
          match List.assoc_opt name batch_specs with
          | Some mkb -> mkb params depth
          | None -> Array.map build
        in
        Ok
          {
            name;
            family = Key.family ~name ~params ~depth;
            params;
            depth;
            build;
            build_batch;
          }
