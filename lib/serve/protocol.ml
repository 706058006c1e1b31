(* Newline-delimited JSON protocol: one request value per line, one
   response value per line. An object with "model" is a single query,
   an array of such objects is a batch (answered through
   Server.answer_batch so misses warm-start each other and fan over the
   pool), and {"op": "stats"} / {"op": "ping"} are introspection.
   Malformed input never kills a connection: every failure mode maps to
   an {"ok": false} response. *)

let error fmt =
  Printf.ksprintf
    (fun msg -> Wire.Obj [ ("ok", Wire.Bool false); ("error", Wire.Str msg) ])
    fmt

type query = {
  fam : Families.t;
  lambda : float;
  tail : int option; (* include the first k state components *)
}

let parse_query ~depth v =
  match Wire.member "model" v with
  | None -> Error "missing \"model\""
  | Some m -> (
      match Wire.to_str m with
      | None -> Error "\"model\" must be a string"
      | Some name -> (
          match Option.map Wire.to_float (Wire.member "lambda" v) with
          | None | Some None -> Error "missing numeric \"lambda\""
          | Some (Some lambda) -> (
              let params =
                match Wire.member "params" v with
                | None -> Ok []
                | Some p -> (
                    match Wire.obj_members p with
                    | None -> Error "\"params\" must be an object"
                    | Some members ->
                        List.fold_left
                          (fun acc (k, pv) ->
                            match (acc, Wire.to_float pv) with
                            | Error _, _ -> acc
                            | Ok _, None ->
                                Error
                                  (Printf.sprintf
                                     "parameter %S must be a number" k)
                            | Ok ps, Some f -> Ok ((k, f) :: ps))
                          (Ok []) members
                        |> Result.map List.rev)
              in
              match params with
              | Error e -> Error e
              | Ok params -> (
                  let tail =
                    match Option.map Wire.to_float (Wire.member "tail" v) with
                    | Some (Some k) when k > 0.0 ->
                        Some (int_of_float (Float.min k 4096.0))
                    | _ -> None
                  in
                  match Families.resolve ~depth ~name params with
                  | Error e -> Error e
                  (* e.g. a non-finite float parameter rejected by key
                     canonicalisation inside resolve *)
                  | exception Invalid_argument msg -> Error msg
                  | Ok fam -> (
                      (* Validate λ/parameters against the model's own
                         domain checks now, so one bad slot errors on
                         its own and cannot poison a batch mid-fan. *)
                      match fam.Families.build lambda with
                      | _ -> Ok { fam; lambda; tail }
                      | exception Invalid_argument msg -> Error msg)))))

let answer_json (q : query) (a : Server.answer) =
  let base =
    [
      ("ok", Wire.Bool true);
      ("model", Wire.Str a.Server.family.Families.name);
      ("family", Wire.Str a.Server.family.Families.family);
      ("lambda", Wire.Num a.Server.lambda);
      ("source", Wire.Str (Server.source_name a.Server.source));
      ("residual", Wire.Num a.Server.residual);
      ("evals", Wire.Num (float_of_int a.Server.evals));
      ("mean_tasks", Wire.Num a.Server.mean_tasks);
      ("mean_time", Wire.Num a.Server.mean_time);
    ]
  in
  let tail =
    match q.tail with
    | None -> []
    | Some k ->
        let state = a.Server.state in
        let k = min k (Numerics.Vec.dim state) in
        [
          ( "state",
            Wire.Arr (List.init k (fun i -> Wire.Num state.(i))) );
        ]
  in
  Wire.Obj (base @ tail)

let stats_json ?domain_requests (s : Server.stats) =
  let c = s.Server.cache in
  let num i = Wire.Num (float_of_int i) in
  let served = s.Server.hit + s.Server.interpolated + s.Server.warm + s.Server.cold in
  let misses = s.Server.warm + s.Server.cold in
  let domains =
    match domain_requests with
    | None -> []
    | Some requests ->
        let counts = requests () in
        [
          ("domain_requests", Wire.Arr (Array.to_list (Array.map num counts)));
          ( "serving_domains",
            num
              (Array.fold_left (fun k n -> if n > 0 then k + 1 else k) 0 counts)
          );
        ]
  in
  Wire.Obj
    ([
       ("ok", Wire.Bool true);
       ("served", num served);
       ("hit", num s.Server.hit);
       ("interpolated", num s.Server.interpolated);
       ("warm", num s.Server.warm);
       ("cold", num s.Server.cold);
       ( "hit_rate",
         Wire.Num
           (if served = 0 then 0.0
            else float_of_int s.Server.hit /. float_of_int served) );
       ( "evals_per_miss",
         Wire.Num
           (if misses = 0 then 0.0
            else float_of_int s.Server.miss_evals /. float_of_int misses) );
       ("batched_solves", num s.Server.batched_solves);
       ("batched_columns", num s.Server.batched_columns);
       ("cache_entries", num c.Cache.entries);
       ("cache_families", num c.Cache.families);
       ("cache_shards", num c.Cache.shards);
       ("cache_hits", num c.Cache.hits);
       ("cache_misses", num c.Cache.misses);
       ("cache_insertions", num c.Cache.insertions);
     ]
    @ domains)

let handle_value ?pool ?domain_requests server v =
  let depth = (Server.config server).Server.depth in
  match v with
  | Wire.Obj _ when Wire.member "op" v <> None -> (
      match Option.map Wire.to_str (Wire.member "op" v) with
      | Some (Some "stats") ->
          stats_json ?domain_requests (Server.stats server)
      | Some (Some "ping") -> Wire.Obj [ ("ok", Wire.Bool true) ]
      | Some (Some op) -> error "unknown op %S" op
      | _ -> error "\"op\" must be a string")
  | Wire.Obj _ -> (
      match parse_query ~depth v with
      | Error e -> error "%s" e
      | Ok q -> (
          match Server.answer server q.fam q.lambda with
          | a -> answer_json q a
          | exception Invalid_argument msg -> error "%s" msg))
  | Wire.Arr items -> (
      let parsed = List.map (parse_query ~depth) items in
      let queries =
        List.filter_map
          (function Ok q -> Some (q.fam, q.lambda) | Error _ -> None)
          parsed
      in
      match Server.answer_batch ?pool server queries with
      | answers ->
          (* Re-thread answers into slots whose query parsed. *)
          let answers = ref answers in
          let take () =
            match !answers with
            | a :: rest ->
                answers := rest;
                a
            | [] -> assert false
          in
          Wire.Arr
            (List.map
               (function
                 | Error e -> error "%s" e
                 | Ok q -> answer_json q (take ()))
               parsed)
      | exception Invalid_argument msg -> error "%s" msg)
  | _ -> error "request must be an object or an array of objects"

let handle_line ?pool ?domain_requests server line =
  let response =
    match Wire.of_string line with
    | v -> handle_value ?pool ?domain_requests server v
    | exception Wire.Parse_error msg -> error "parse error: %s" msg
  in
  Wire.to_string response
