let aitken x0 x1 x2 =
  let d1 = x1 -. x0 and d2 = x2 -. x1 in
  let dd = d2 -. d1 in
  if Float.abs dd <= 1e-300 || not (Float.is_finite dd) then x2
  else begin
    let est = x2 -. (d2 *. d2 /. dd) in
    if Float.is_finite est then est else x2
  end

let aitken_vec v0 v1 v2 =
  if Vec.dim v0 <> Vec.dim v1 || Vec.dim v1 <> Vec.dim v2 then
    invalid_arg "Accel.aitken_vec: dimension mismatch";
  Vec.init (Vec.dim v0) (fun i -> aitken v0.(i) v1.(i) v2.(i))

let dominant_ratio v0 v1 v2 =
  let n = Vec.dim v0 in
  if Vec.dim v1 <> n || Vec.dim v2 <> n then
    invalid_arg "Accel.dominant_ratio: dimension mismatch";
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to n - 1 do
    let d1 = v1.(i) -. v0.(i) and d2 = v2.(i) -. v1.(i) in
    num := !num +. (d2 *. d1);
    den := !den +. (d1 *. d1)
  done;
  if !den <= 1e-300 then nan else !num /. !den

let ratio_usable rho = Float.is_finite rho && Float.abs rho < 1.0

let extrapolate_dominant v0 v1 v2 =
  let rho = dominant_ratio v0 v1 v2 in
  if not (ratio_usable rho) then Vec.copy v2
  else begin
    let gain = rho /. (1.0 -. rho) in
    Vec.init (Vec.dim v2) (fun i ->
        v2.(i) +. ((v2.(i) -. v1.(i)) *. gain))
  end

(* ---------- Anderson mixing ---------- *)

type anderson = {
  dim : int;
  depth : int;
  beta : float;
  reg : float;
  dx : Vec.t array;  (* ring buffer of iterate differences x_k - x_{k-1} *)
  df : Vec.t array;  (* matching residual differences f_k - f_{k-1} *)
  mutable stored : int;
  mutable head : int;
  prev_x : Vec.t;
  prev_f : Vec.t;
  mutable have_prev : bool;
}

let anderson ?(depth = 5) ?(beta = 1.0) ?(reg = 1e-10) dim =
  if depth <= 0 then invalid_arg "Accel.anderson: depth must be positive";
  if dim <= 0 then invalid_arg "Accel.anderson: dim must be positive";
  if reg < 0.0 then invalid_arg "Accel.anderson: reg must be non-negative";
  {
    dim;
    depth;
    beta;
    reg;
    dx = Array.init depth (fun _ -> Vec.create dim);
    df = Array.init depth (fun _ -> Vec.create dim);
    stored = 0;
    head = 0;
    prev_x = Vec.create dim;
    prev_f = Vec.create dim;
    have_prev = false;
  }

let anderson_reset st =
  st.stored <- 0;
  st.head <- 0;
  st.have_prev <- false

let anderson_depth_in_use st = st.stored

(* Solve the m×m system a·γ = b in place by Gaussian elimination with
   partial pivoting; false when a pivot (post-regularisation) is still
   effectively zero or the solution is not finite. *)
let solve_small m a b gamma =
  let ok = ref true in
  for col = 0 to m - 1 do
    if !ok then begin
      let piv = ref col in
      for r = col + 1 to m - 1 do
        if Float.abs a.(r).(col) > Float.abs a.(!piv).(col) then piv := r
      done;
      if !piv <> col then begin
        let tmp = a.(col) in
        a.(col) <- a.(!piv);
        a.(!piv) <- tmp;
        let tb = b.(col) in
        b.(col) <- b.(!piv);
        b.(!piv) <- tb
      end;
      let p = a.(col).(col) in
      if Float.abs p <= 1e-300 || not (Float.is_finite p) then ok := false
      else
        for r = col + 1 to m - 1 do
          let factor = a.(r).(col) /. p in
          for c = col to m - 1 do
            a.(r).(c) <- a.(r).(c) -. (factor *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (factor *. b.(col))
        done
    end
  done;
  if !ok then
    for row = m - 1 downto 0 do
      let s = ref b.(row) in
      for c = row + 1 to m - 1 do
        s := !s -. (a.(row).(c) *. gamma.(c))
      done;
      gamma.(row) <- !s /. a.(row).(row);
      if not (Float.is_finite gamma.(row)) then ok := false
    done;
  !ok

let anderson_step st ~x ~gx =
  if Vec.dim x <> st.dim || Vec.dim gx <> st.dim then
    invalid_arg "Accel.anderson_step: dimension mismatch";
  let n = st.dim in
  let f = Vec.init n (fun i -> gx.(i) -. x.(i)) in
  if st.have_prev then begin
    let slot = st.head in
    for i = 0 to n - 1 do
      st.dx.(slot).(i) <- x.(i) -. st.prev_x.(i);
      st.df.(slot).(i) <- f.(i) -. st.prev_f.(i)
    done;
    st.head <- (st.head + 1) mod st.depth;
    if st.stored < st.depth then st.stored <- st.stored + 1
  end;
  Vec.blit ~src:x ~dst:st.prev_x;
  Vec.blit ~src:f ~dst:st.prev_f;
  st.have_prev <- true;
  let plain () = Vec.init n (fun i -> x.(i) +. (st.beta *. f.(i))) in
  let m = st.stored in
  if m = 0 then plain ()
  else begin
    (* Type-II Anderson: least-squares residual combination through the
       regularised normal equations (ΔFᵀΔF + reg·scale·I)γ = ΔFᵀf. The
       histories are tiny (depth ≤ ~10), so forming the Gram matrix and
       eliminating directly is cheaper than anything fancier. *)
    let a = Array.make_matrix m m 0.0 in
    let b = Array.make m 0.0 in
    for j = 0 to m - 1 do
      for k = j to m - 1 do
        let d = Vec.dot st.df.(j) st.df.(k) in
        a.(j).(k) <- d;
        a.(k).(j) <- d
      done;
      b.(j) <- Vec.dot st.df.(j) f
    done;
    let max_diag = ref 0.0 in
    for j = 0 to m - 1 do
      if a.(j).(j) > !max_diag then max_diag := a.(j).(j)
    done;
    let ridge = st.reg *. Float.max !max_diag 1e-300 in
    for j = 0 to m - 1 do
      a.(j).(j) <- a.(j).(j) +. ridge
    done;
    let gamma = Array.make m 0.0 in
    if not (solve_small m a b gamma) then plain ()
    else begin
      let next =
        Vec.init n (fun i ->
            let correction = ref 0.0 in
            for j = 0 to m - 1 do
              correction :=
                !correction
                +. (gamma.(j)
                    *. (st.dx.(j).(i) +. (st.beta *. st.df.(j).(i))))
            done;
            x.(i) +. (st.beta *. f.(i)) -. !correction)
      in
      let finite = ref true in
      for i = 0 to n - 1 do
        if not (Float.is_finite next.(i)) then finite := false
      done;
      if !finite then next else plain ()
    end
  end

(* ---------- column-wise Anderson mixing ---------- *)

(* The batched counterpart of {!anderson}: one mixing state per column
   of a SoA state matrix, with the ring-buffer histories stored as
   depth-many dim×cols slabs so column k's history is column k of every
   slab. Semantics per column mirror {!anderson_step} exactly (type-II
   regularised normal equations, plain-mixing fallbacks); columns only
   share scratch, never information. *)
type anderson_cols = {
  acdim : int;
  accols : int;
  acdepth : int;
  acbeta : float;
  acreg : float;
  acdx : Mat.t array;  (* ring buffer slabs of iterate differences *)
  acdf : Mat.t array;  (* matching residual differences *)
  acstored : int array;  (* per-column history depth in use *)
  achead : int array;  (* per-column ring position *)
  acprev_x : Mat.t;
  acprev_f : Mat.t;
  achave : bool array;
  acf : Mat.t;  (* scratch: current residuals f = g(x) - x *)
  aca : float array array;  (* depth×depth Gram scratch *)
  acb : float array;
  acgamma : float array;
}

let anderson_cols ?(depth = 5) ?(beta = 1.0) ?(reg = 1e-10) ~dim ~cols () =
  if depth <= 0 then invalid_arg "Accel.anderson_cols: depth must be positive";
  if dim <= 0 then invalid_arg "Accel.anderson_cols: dim must be positive";
  if cols <= 0 then invalid_arg "Accel.anderson_cols: cols must be positive";
  if reg < 0.0 then invalid_arg "Accel.anderson_cols: reg must be non-negative";
  let slab () = Mat.create ~rows:dim ~cols in
  {
    acdim = dim;
    accols = cols;
    acdepth = depth;
    acbeta = beta;
    acreg = reg;
    acdx = Array.init depth (fun _ -> slab ());
    acdf = Array.init depth (fun _ -> slab ());
    acstored = Array.make cols 0;
    achead = Array.make cols 0;
    acprev_x = slab ();
    acprev_f = slab ();
    achave = Array.make cols false;
    acf = slab ();
    aca = Array.make_matrix depth depth 0.0;
    acb = Array.make depth 0.0;
    acgamma = Array.make depth 0.0;
  }

let anderson_cols_reset st k =
  st.acstored.(k) <- 0;
  st.achead.(k) <- 0;
  st.achave.(k) <- false

(* Per-column dot of two slab columns restricted to rows 0..dim-1. *)
let[@inline] col_dot_k a b k n =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (Mat.get a i k *. Mat.get b i k)
  done;
  !acc

let anderson_cols_step st ~xs ~gxs ~dst ~cols =
  if
    Mat.rows xs <> st.acdim || Mat.cols xs <> st.accols
    || Mat.rows gxs <> st.acdim
    || Mat.cols gxs <> st.accols
    || Mat.rows dst <> st.acdim
    || Mat.cols dst <> st.accols
  then invalid_arg "Accel.anderson_cols_step: shape mismatch";
  let n = st.acdim in
  for j = 0 to cols.Active.n - 1 do
    let k = cols.Active.idx.(j) in
    for i = 0 to n - 1 do
      Mat.set st.acf i k (Mat.get gxs i k -. Mat.get xs i k)
    done;
    if st.achave.(k) then begin
      let slot = st.achead.(k) in
      for i = 0 to n - 1 do
        Mat.set st.acdx.(slot) i k (Mat.get xs i k -. Mat.get st.acprev_x i k);
        Mat.set st.acdf.(slot) i k (Mat.get st.acf i k -. Mat.get st.acprev_f i k)
      done;
      st.achead.(k) <- (slot + 1) mod st.acdepth;
      if st.acstored.(k) < st.acdepth then st.acstored.(k) <- st.acstored.(k) + 1
    end;
    for i = 0 to n - 1 do
      Mat.set st.acprev_x i k (Mat.get xs i k);
      Mat.set st.acprev_f i k (Mat.get st.acf i k)
    done;
    st.achave.(k) <- true;
    let m = st.acstored.(k) in
    let plain () =
      for i = 0 to n - 1 do
        Mat.set dst i k (Mat.get xs i k +. (st.acbeta *. Mat.get st.acf i k))
      done
    in
    if m = 0 then plain ()
    else begin
      for a = 0 to m - 1 do
        for b = a to m - 1 do
          let d = col_dot_k st.acdf.(a) st.acdf.(b) k n in
          st.aca.(a).(b) <- d;
          st.aca.(b).(a) <- d
        done;
        st.acb.(a) <- col_dot_k st.acdf.(a) st.acf k n
      done;
      let max_diag = ref 0.0 in
      for a = 0 to m - 1 do
        if st.aca.(a).(a) > !max_diag then max_diag := st.aca.(a).(a)
      done;
      let ridge = st.acreg *. Float.max !max_diag 1e-300 in
      for a = 0 to m - 1 do
        st.aca.(a).(a) <- st.aca.(a).(a) +. ridge
      done;
      if not (solve_small m st.aca st.acb st.acgamma) then plain ()
      else begin
        let finite = ref true in
        for i = 0 to n - 1 do
          let correction = ref 0.0 in
          for a = 0 to m - 1 do
            correction :=
              !correction
              +. (st.acgamma.(a)
                  *. (Mat.get st.acdx.(a) i k
                     +. (st.acbeta *. Mat.get st.acdf.(a) i k)))
          done;
          let v =
            Mat.get xs i k +. (st.acbeta *. Mat.get st.acf i k) -. !correction
          in
          if not (Float.is_finite v) then finite := false;
          Mat.set dst i k v
        done;
        if not !finite then plain ()
      end
    end
  done

let richardson ~order ~h_ratio coarse fine =
  if order <= 0 then invalid_arg "Accel.richardson: order must be positive";
  if h_ratio <= 1.0 then
    invalid_arg "Accel.richardson: h_ratio must exceed 1";
  let k = h_ratio ** float_of_int order in
  ((k *. fine) -. coarse) /. (k -. 1.0)
