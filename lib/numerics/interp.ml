type kind =
  | Linear
  | Pchip of Vec.t (* per-point derivatives *)

type t = { xs : Vec.t; ys : Vec.t; kind : kind }

let check_inputs name xs ys =
  let n = Vec.dim xs in
  if n < 2 then invalid_arg (name ^ ": need at least 2 points");
  if Vec.dim ys <> n then invalid_arg (name ^ ": length mismatch");
  for i = 1 to n - 1 do
    if xs.(i) <= xs.(i - 1) then
      invalid_arg (name ^ ": abscissae must be strictly increasing")
  done

let linear ~xs ~ys =
  check_inputs "Interp.linear" xs ys;
  { xs = Vec.copy xs; ys = Vec.copy ys; kind = Linear }

(* Fritsch-Carlson monotone slopes: start from three-point weighted means
   and clamp so each interval's Hermite cubic stays monotone. *)
let pchip_slopes xs ys =
  let n = Vec.dim xs in
  let h = Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  let delta = Array.init (n - 1) (fun i -> (ys.(i + 1) -. ys.(i)) /. h.(i)) in
  let d = Vec.create n in
  d.(0) <- delta.(0);
  d.(n - 1) <- delta.(n - 2);
  for i = 1 to n - 2 do
    if delta.(i - 1) *. delta.(i) <= 0.0 then d.(i) <- 0.0
    else begin
      let w1 = (2.0 *. h.(i)) +. h.(i - 1) in
      let w2 = h.(i) +. (2.0 *. h.(i - 1)) in
      d.(i) <- (w1 +. w2) /. ((w1 /. delta.(i - 1)) +. (w2 /. delta.(i)))
    end
  done;
  (* limit endpoint slopes to preserve shape *)
  let clamp_end i adj =
    if Float.equal delta.(adj) 0.0 then d.(i) <- 0.0
    else if d.(i) *. delta.(adj) < 0.0 then d.(i) <- 0.0
    else if Float.abs d.(i) > 3.0 *. Float.abs delta.(adj) then
      d.(i) <- 3.0 *. delta.(adj)
  in
  clamp_end 0 0;
  clamp_end (n - 1) (n - 2);
  d

let pchip ~xs ~ys =
  check_inputs "Interp.pchip" xs ys;
  { xs = Vec.copy xs; ys = Vec.copy ys; kind = Pchip (pchip_slopes xs ys) }

(* binary search: greatest i with xs.(i) <= x, clamped to [0, n-2] *)
let locate xs x =
  let n = Vec.dim xs in
  if x <= xs.(0) then 0
  else if x >= xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let eval t x =
  let n = Vec.dim t.xs in
  if x <= t.xs.(0) then t.ys.(0)
  else if x >= t.xs.(n - 1) then t.ys.(n - 1)
  else begin
    let i = locate t.xs x in
    let h = t.xs.(i + 1) -. t.xs.(i) in
    let s = (x -. t.xs.(i)) /. h in
    match t.kind with
    | Linear -> t.ys.(i) +. (s *. (t.ys.(i + 1) -. t.ys.(i)))
    | Pchip d ->
        (* cubic Hermite basis *)
        let s2 = s *. s in
        let s3 = s2 *. s in
        let h00 = (2.0 *. s3) -. (3.0 *. s2) +. 1.0 in
        let h10 = s3 -. (2.0 *. s2) +. s in
        let h01 = (-2.0 *. s3) +. (3.0 *. s2) in
        let h11 = s3 -. s2 in
        (h00 *. t.ys.(i))
        +. (h10 *. h *. d.(i))
        +. (h01 *. t.ys.(i + 1))
        +. (h11 *. h *. d.(i + 1))
  end

(* Vector-valued single-shot PCHIP: evaluate the Fritsch-Carlson
   interpolant of every component of a sampled vector function at one
   query point, without building [dim] interpolant records. The slopes a
   cubic Hermite segment needs are local (they read only the secants of
   the two adjacent intervals), so per component we recompute exactly the
   two slopes the bracketing interval uses — identical arithmetic to
   [pchip_slopes] restricted to indices [i] and [i+1] — and evaluate the
   same Hermite basis as [eval]. Agreement with the record-based path is
   pinned by test/test_numerics.ml. *)
let pchip_cols ~xs ~cols x =
  let n = Vec.dim xs in
  if n < 2 then invalid_arg "Interp.pchip_cols: need at least 2 points";
  if Array.length cols <> n then
    invalid_arg "Interp.pchip_cols: column count mismatch";
  let dim = Vec.dim cols.(0) in
  Array.iter
    (fun c ->
      if Vec.dim c <> dim then
        invalid_arg "Interp.pchip_cols: ragged columns")
    cols;
  for i = 1 to n - 1 do
    if xs.(i) <= xs.(i - 1) then
      invalid_arg "Interp.pchip_cols: abscissae must be strictly increasing"
  done;
  if x <= xs.(0) then Vec.copy cols.(0)
  else if x >= xs.(n - 1) then Vec.copy cols.(n - 1)
  else begin
    let i = locate xs x in
    let h = xs.(i + 1) -. xs.(i) in
    let s = (x -. xs.(i)) /. h in
    let s2 = s *. s in
    let s3 = s2 *. s in
    let h00 = (2.0 *. s3) -. (3.0 *. s2) +. 1.0 in
    let h10 = s3 -. (2.0 *. s2) +. s in
    let h01 = (-2.0 *. s3) +. (3.0 *. s2) in
    let h11 = s3 -. s2 in
    (* interior FC slope at sample [j] for component [k]; endpoint
       slopes replicate [pchip_slopes]'s one-sided estimate + clamp *)
    let secant j k = (cols.(j + 1).(k) -. cols.(j).(k)) /. (xs.(j + 1) -. xs.(j)) in
    let slope j k =
      if j = 0 || j = n - 1 then begin
        let adj = if j = 0 then 0 else n - 2 in
        let delta = secant adj k in
        let d = if j = 0 then secant 0 k else secant (n - 2) k in
        (* with one-sided estimates d = delta, so the FC endpoint clamp
           reduces to the secant itself; spelled out for clarity *)
        if Float.equal delta 0.0 then 0.0
        else if d *. delta < 0.0 then 0.0
        else if Float.abs d > 3.0 *. Float.abs delta then 3.0 *. delta
        else d
      end
      else begin
        let dm = secant (j - 1) k and dp = secant j k in
        if dm *. dp <= 0.0 then 0.0
        else begin
          let hm = xs.(j) -. xs.(j - 1) and hp = xs.(j + 1) -. xs.(j) in
          let w1 = (2.0 *. hp) +. hm in
          let w2 = hp +. (2.0 *. hm) in
          (w1 +. w2) /. ((w1 /. dm) +. (w2 /. dp))
        end
      end
    in
    Vec.init dim (fun k ->
        (h00 *. cols.(i).(k))
        +. (h10 *. h *. slope i k)
        +. (h01 *. cols.(i + 1).(k))
        +. (h11 *. h *. slope (i + 1) k))
  end
