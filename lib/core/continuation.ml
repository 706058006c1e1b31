(* Nearest-neighbour warm starts along the fixed-point curve, shared by
   the serial sweep continuation (along_lambda, which solves the paper
   tables' grids) and the prediction service's fixed-point cache
   (Serve.Server). One implementation, two call shapes: the sweep feeds
   the single previous point of its ascending chain, the cache feeds
   every entry it holds for the model family. *)

let nearest_start ~candidates ~dim lambda =
  let best =
    List.fold_left
      (fun best (l, s) ->
        if Numerics.Vec.dim s <> dim then best
        else
          match best with
          | Some (bl, _) when Float.abs (bl -. lambda) <= Float.abs (l -. lambda)
            ->
              best
          | _ -> Some (l, s))
      None candidates
  in
  match best with Some (_, s) -> `State s | None -> `Warm

let along_lambda ~build lambdas =
  (* Solve serially in ascending lambda so each point starts from its
     neighbour's fixed point: the fixed-point curve is continuous in
     lambda, so the warm start is already below the hand-over residual for
     every point but the first. The input order is restored afterwards,
     so callers see results positionally aligned with [lambdas] whatever
     order the continuation visited them in. *)
  let tagged = List.mapi (fun i l -> (i, l)) lambdas in
  let ascending = List.sort (fun (_, a) (_, b) -> Float.compare a b) tagged in
  let _, solved =
    List.fold_left
      (fun (prev, acc) (idx, lambda) ->
        let model = build lambda in
        let start =
          nearest_start ~candidates:prev ~dim:model.Model.dim lambda
        in
        let fp = Drive.fixed_point ~start model in
        ([ (lambda, fp.Drive.state) ], (idx, lambda, fp) :: acc))
      ([], []) ascending
  in
  List.map
    (fun (_, lambda, fp) -> (lambda, fp))
    (List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j) solved)

let lookup results lambda =
  match List.find_opt (fun (l, _) -> Float.equal l lambda) results with
  | Some (_, fp) -> fp
  | None -> invalid_arg "Continuation.lookup: lambda not solved by this sweep"

let total_evals results =
  List.fold_left (fun acc (_, fp) -> acc + fp.Drive.evals) 0 results

let pinned_dim lambdas =
  let lmax = List.fold_left Float.max 0.0 lambdas in
  Tail.suggested_dim ~lambda:lmax ()
