(* The traced run's in-process replays of a serve workload's exact
   request lines: three passes run in lockstep, request by request, each
   on a fresh Serve.Server.t built with the daemon's default config:

   - untraced: Protocol.handle_line, no spans — the base of the tracing
     overhead;
   - protocol: spans around Wire.of_string, Protocol.handle_value and
     Wire.to_string — the in-process cost transport is measured against,
     and the GC counters;
   - decomposed: spans around each call Protocol.handle_value composes —
     Families.resolve, Families.t.build, Server.try_fast (labelled by its
     outcome), Server.solve_group — so the difference against the
     protocol pass's handle_value is the time nothing attributes.

   The three take turns in an order that rotates from request to
   request, so they meet the machine at the same moments and each starts
   a request from the same cache state: their differences are the
   tracing and the unattributed work, not the drift in machine speed
   that moved separately timed passes by ±12 %. *)

open Serve

type counts = {
  hit : int;
  interpolated : int;
  warm : int;
  cold : int;
  miss_evals : int;
  batched_solves : int;
  batched_columns : int;
  entries : int;
  families : int;
}

let counts server =
  let s = Server.stats server in
  {
    hit = s.Server.hit;
    interpolated = s.Server.interpolated;
    warm = s.Server.warm;
    cold = s.Server.cold;
    miss_evals = s.Server.miss_evals;
    batched_solves = s.Server.batched_solves;
    batched_columns = s.Server.batched_columns;
    entries = s.Server.cache.Cache.entries;
    families = s.Server.cache.Cache.families;
  }

let counts_fields c =
  [
    ("hit", c.hit); ("interpolated", c.interpolated); ("warm", c.warm); ("cold", c.cold);
    ("miss_evals", c.miss_evals); ("batched_solves", c.batched_solves);
    ("batched_columns", c.batched_columns); ("cache_entries", c.entries);
    ("cache_families", c.families);
  ]

let untraced_step pool server line = ignore (Protocol.handle_line ~pool server line)

let protocol_step pool server sp ~req line =
  Spans.with_span sp ~req "request" (fun () ->
      let v = Spans.with_span sp ~req "wire.of_string" (fun () -> Wire.of_string line) in
      let r =
        Spans.with_span sp ~req "protocol.handle_value" (fun () -> Protocol.handle_value ~pool server v)
      in
      ignore (Spans.with_span sp ~req "wire.to_string" (fun () -> Wire.to_string r)))

(* The response value Protocol builds for an answer, so the decomposed
   replay prints the same bytes. *)
let answer_json (a : Server.answer) =
  Wire.Obj
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

let try_fast_label = function
  | None -> "server.try_fast:miss"
  | Some a -> (
      match a.Server.source with
      | Server.Hit -> "server.try_fast:hit"
      | Server.Interpolated -> "server.try_fast:interp"
      | Server.Warm | Server.Cold -> "server.try_fast:other")

type decomposed = {
  d_spans : Spans.span array;
  d_counts : counts;
  singleton_evals : int;  (** Evals of answers from singleton solve_group calls. *)
  hand_columns : int;  (** Batch columns whose family has a hand-batched deriv_cols. *)
  batch_columns : int;
  batch_requests : int;
  anchor_scans : int;  (** Batch requests whose family had nothing cached. *)
}

let field name v conv =
  match Option.bind (Wire.member name v) conv with
  | Some x -> x
  | None -> failwith ("decomposed replay: bad field " ^ name)

(* Batch-request properties, found before the timed loop: a scan whose
   family no earlier request asked for takes the anchor path, and its
   family has a hand-batched deriv_cols or bridges through deriv. *)
let batch_shape ~depth (requests : Gen.request array) =
  let asked = Hashtbl.create 64 and hand = Hashtbl.create 16 in
  let is_hand (r : Gen.request) k =
    match Hashtbl.find_opt hand k with
    | Some b -> b
    | None ->
        let fam = (List.hd r.Gen.queries).Gen.fam in
        let b =
          match Families.resolve ~depth ~name:fam.Gen.model (Gen.resolve_params fam) with
          | Error e -> failwith e
          | Ok f ->
              let lams = Array.of_list (List.map Gen.lambda r.Gen.queries) in
              snd (Meanfield.Model.batch_deriv (f.Families.build_batch lams))
        in
        Hashtbl.add hand k b;
        b
  in
  Array.fold_left
    (fun (requests, anchors, columns, hand_cols) (r : Gen.request) ->
      let keys = List.map (fun (q : Gen.query) -> Gen.family_key q.Gen.fam) r.Gen.queries in
      let acc =
        if not r.Gen.batch then (requests, anchors, columns, hand_cols)
        else
          let k = List.hd keys and width = List.length keys in
          ( requests + 1,
            (if Hashtbl.mem asked k then anchors else anchors + 1),
            columns + width,
            if is_hand r k then hand_cols + width else hand_cols )
      in
      List.iter (fun k -> Hashtbl.replace asked k ()) keys;
      acc)
    (0, 0, 0, 0) requests

(* One request through the calls Protocol.handle_value composes; returns
   the evals of its singleton solve, 0 when it had none. *)
let decomposed_step server ~depth sp ~req (r : Gen.request) =
  let singleton_evals = ref 0 in
  let span ?label name f = Spans.with_span ?label sp ~req name f in
  let try_fast fam l = span ~label:try_fast_label "server.try_fast" (fun () -> Server.try_fast server fam l) in
  span "request" (fun () ->
      let v = span "wire.of_string" (fun () -> Wire.of_string r.Gen.line) in
      let items = match v with Wire.Arr xs -> xs | x -> [ x ] in
      let parsed =
        List.map
          (fun item ->
            let name = field "model" item Wire.to_str in
            let lambda = field "lambda" item Wire.to_float in
            let params =
              match Wire.member "params" item with
              | None -> []
              | Some p ->
                  List.map
                    (fun (k, pv) -> (k, Option.get (Wire.to_float pv)))
                    (Option.get (Wire.obj_members p))
            in
            match span "families.resolve" (fun () -> Families.resolve ~depth ~name params) with
            | Error e -> failwith e
            | Ok fam ->
                ignore (span "families.build" (fun () -> fam.Families.build lambda));
                (fam, Key.canon_float lambda))
          items
      in
      let response =
        if not r.Gen.batch then
          let fam, l = List.hd parsed in
          let a =
            match try_fast fam l with
            | Some a -> a
            | None ->
                let a = List.hd (span "server.solve_group" (fun () -> Server.solve_group server fam [ l ])) in
                singleton_evals := a.Server.evals;
                a
          in
          answer_json a
        else begin
          (* Server.answer_batch for a one-family request: each distinct
             λ through try_fast, then one solve_group over the misses. *)
          let fam = fst (List.hd parsed) in
          let lams = List.map snd parsed in
          let answered = Hashtbl.create 16 in
          let misses =
            List.filter
              (fun l ->
                match try_fast fam l with
                | Some a -> Hashtbl.replace answered l a; false
                | None -> true)
              (List.sort_uniq Float.compare lams)
          in
          if misses <> [] then begin
            let name = if List.length misses >= 2 then "batch.solve_group" else "server.solve_group" in
            let sols = span name (fun () -> Server.solve_group server fam misses) in
            if List.length misses = 1 then singleton_evals := (List.hd sols).Server.evals;
            List.iter2 (Hashtbl.replace answered) misses sols
          end;
          Wire.Arr (List.map (fun l -> answer_json (Hashtbl.find answered l)) lams)
        end
      in
      ignore (span "wire.to_string" (fun () -> Wire.to_string response)));
  !singleton_evals

type lockstep = {
  untraced_s : float;  (** Time in the untraced pass's steps. *)
  traced_s : float;  (** Time in the protocol pass's steps, spans included. *)
  spans : Spans.span array;  (** Of the protocol pass. *)
  minor_words : float;  (** Allocated in the protocol pass's steps. *)
  major_collections : int;  (** Completed in this process during the loop. *)
  u_counts : counts;
  t_counts : counts;
  d : decomposed;
}

let lockstep pool (requests : Gen.request array) =
  let u_server = Server.create () and t_server = Server.create () and d_server = Server.create () in
  let depth = (Server.config d_server).Server.depth in
  let batch_requests, anchor_scans, batch_columns, hand_columns = batch_shape ~depth requests in
  let sp = Spans.create () and d_sp = Spans.create () in
  let untraced_ns = ref 0 and traced_ns = ref 0 and minor_words = ref 0.0 and singleton_evals = ref 0 in
  let timed f =
    let t0 = Util.now_ns () in
    f ();
    Util.now_ns () - t0
  in
  Gc.full_major ();
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  Array.iteri
    (fun req (r : Gen.request) ->
      let line = r.Gen.line in
      let steps =
        [|
          (fun () -> untraced_ns := !untraced_ns + timed (fun () -> untraced_step pool u_server line));
          (fun () ->
            let w0 = Gc.minor_words () in
            traced_ns := !traced_ns + timed (fun () -> protocol_step pool t_server sp ~req line);
            minor_words := !minor_words +. (Gc.minor_words () -. w0));
          (fun () -> singleton_evals := !singleton_evals + decomposed_step d_server ~depth d_sp ~req r);
        |]
      in
      for k = 0 to 2 do
        steps.((req + k) mod 3) ()
      done)
    requests;
  {
    untraced_s = float_of_int !untraced_ns *. 1e-9;
    traced_s = float_of_int !traced_ns *. 1e-9;
    spans = Spans.to_array sp;
    minor_words = !minor_words;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - majors0;
    u_counts = counts u_server;
    t_counts = counts t_server;
    d =
      {
        d_spans = Spans.to_array d_sp;
        d_counts = counts d_server;
        singleton_evals = !singleton_evals;
        hand_columns;
        batch_columns;
        batch_requests;
        anchor_scans;
      };
  }

(* One Model.t.deriv call per family at its pinned depth, at λ = 0.9,
   averaged over the distinct families of the requests. *)
let deriv_ns (requests : Gen.request array) =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (r : Gen.request) ->
      List.iter (fun (q : Gen.query) -> Hashtbl.replace seen (Gen.family_key q.Gen.fam) q.Gen.fam) r.Gen.queries)
    requests;
  let per_family =
    Hashtbl.fold
      (fun _ fam acc ->
        match Families.resolve ~name:fam.Gen.model (Gen.resolve_params fam) with
        | Error e -> failwith e
        | Ok f ->
            let m = f.Families.build 0.9 in
            let y = m.Meanfield.Model.initial_warm () in
            let dy = Array.make m.Meanfield.Model.dim 0.0 in
            let reps = 2000 in
            let t0 = Util.now_ns () in
            for _ = 1 to reps do
              m.Meanfield.Model.deriv ~y ~dy
            done;
            (float_of_int (Util.now_ns () - t0) /. float_of_int reps) :: acc)
      seen []
  in
  List.fold_left ( +. ) 0.0 per_family /. float_of_int (List.length per_family)
