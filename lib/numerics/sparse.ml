type pattern = { n : int; colptr : int array; rowidx : int array }

(* Growable int buffer for building index arrays without lists. *)
type buf = { mutable data : int array; mutable len : int }

let buf_create cap = { data = Array.make (max 16 cap) 0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

let find_pattern ~n f state =
  if Vec.dim state <> n then
    invalid_arg "Sparse.find_pattern: state of the wrong dimension";
  let base = Vec.create n in
  f ~y:state ~dy:base;
  let y = Vec.copy state and dy = Vec.create n in
  let colptr = Array.make (n + 1) 0 in
  let rowidx = buf_create (4 * n) in
  for j = 0 to n - 1 do
    y.(j) <- 0.5 *. state.(j);
    f ~y ~dy;
    y.(j) <- state.(j);
    for i = 0 to n - 1 do
      if i = j || not (Float.equal dy.(i) base.(i)) then push rowidx i
    done;
    colptr.(j + 1) <- rowidx.len
  done;
  { n; colptr; rowidx = contents rowidx }

(* Level-to-level ratios in [0.95, 0.97], spread by the fractional parts
   of multiples of the golden ratio, so no two neighbouring ratios
   coincide. *)
let generic_state n =
  let y = Vec.create n in
  if n > 0 then y.(0) <- 1.0;
  for i = 1 to n - 1 do
    let t = float_of_int i *. 0.6180339887498949 in
    y.(i) <- y.(i - 1) *. (0.97 -. (0.02 *. (t -. Float.of_int (truncate t))))
  done;
  y

(* ---------- analysis ---------- *)

(* Index arrays are stored as 32-bit integers: a structure lives as
   long as the process, one per model key, so halving its footprint is
   worth a sign extension per read. *)
type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@inline] at (a : ints) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let pack (a : int array) : ints =
  let b = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i (Int32.of_int v)) a;
  b

type structure = {
  sn : int;
  ncol : int;
  colour : ints;  (* per original column *)
  gptr : ints;  (* columns of colour c: gcols.(gptr.(c) .. gptr.(c+1)-1) *)
  gcols : ints;
  perm : ints;  (* position in the elimination order -> original index *)
  rowptr : ints;  (* rows of L + U, in elimination order *)
  cols : ints;
      (* per slot: permuted column lsl 1, lor 1 when the entry is in the
         pattern (a fill slot starts at 0) *)
  diag : ints;  (* slot of each row's diagonal *)
  nnz_a : int;
  nflops : int;
  ndense : int;
}

let colours st = st.ncol
let nnz st = st.nnz_a
let fill st = Bigarray.Array1.dim st.cols
let flops st = st.nflops
let dense_columns st = st.ndense

(* Rows of the pattern: row i's columns, ascending. *)
let transpose p =
  let n = p.n in
  let count = Array.make (n + 1) 0 in
  Array.iter (fun i -> count.(i + 1) <- count.(i + 1) + 1) p.rowidx;
  for i = 0 to n - 1 do
    count.(i + 1) <- count.(i + 1) + count.(i)
  done;
  let rowptr = Array.copy count in
  let colidx = Array.make (Array.length p.rowidx) 0 in
  let next = Array.sub count 0 n in
  for j = 0 to n - 1 do
    for e = p.colptr.(j) to p.colptr.(j + 1) - 1 do
      let i = p.rowidx.(e) in
      colidx.(next.(i)) <- j;
      next.(i) <- next.(i) + 1
    done
  done;
  (rowptr, colidx)

(* Greedy CPR colouring in column order: a column takes the smallest
   colour no column sharing one of its rows holds. *)
let colour_columns p ~rowptr ~colidx =
  let n = p.n in
  let colour = Array.make n (-1) in
  let stamp = Array.make (n + 1) (-1) in
  let ncol = ref 0 in
  for j = 0 to n - 1 do
    for e = p.colptr.(j) to p.colptr.(j + 1) - 1 do
      let i = p.rowidx.(e) in
      for q = rowptr.(i) to rowptr.(i + 1) - 1 do
        let c = colour.(colidx.(q)) in
        if c >= 0 then stamp.(c) <- j
      done
    done;
    let c = ref 0 in
    while stamp.(!c) = j do
      incr c
    done;
    colour.(j) <- !c;
    if !c >= !ncol then ncol := !c + 1
  done;
  let gptr = Array.make (!ncol + 1) 0 in
  Array.iter (fun c -> gptr.(c + 1) <- gptr.(c + 1) + 1) colour;
  for c = 0 to !ncol - 1 do
    gptr.(c + 1) <- gptr.(c + 1) + gptr.(c)
  done;
  let gcols = Array.make n 0 in
  let next = Array.sub gptr 0 !ncol in
  Array.iteri
    (fun j c ->
      gcols.(next.(c)) <- j;
      next.(c) <- next.(c) + 1)
    colour;
  (!ncol, colour, gptr, gcols)

(* Symmetrised adjacency (the pattern plus its transpose), without the
   diagonal: vertex v's column and row, both ascending, merged. *)
let adjacency p ~rowptr ~colidx =
  Array.init p.n (fun v ->
      let alo = p.colptr.(v) and ahi = p.colptr.(v + 1) in
      let blo = rowptr.(v) and bhi = rowptr.(v + 1) in
      let out = Array.make (ahi - alo + bhi - blo) 0 in
      let len = ref 0 and i = ref alo and j = ref blo in
      let take x =
        if x <> v && (!len = 0 || out.(!len - 1) <> x) then begin
          out.(!len) <- x;
          incr len
        end
      in
      while !i < ahi || !j < bhi do
        if !j >= bhi || (!i < ahi && p.rowidx.(!i) <= colidx.(!j)) then begin
          take p.rowidx.(!i);
          incr i
        end
        else begin
          take colidx.(!j);
          incr j
        end
      done;
      Array.sub out 0 !len)

(* Reverse Cuthill–McKee over the vertices [keep] admits, each component
   started from a pseudo-peripheral vertex (George–Liu: from a
   least-degree vertex, move to a least-degree vertex of the last BFS
   level while that deepens the level structure). *)
let rcm adj keep =
  let n = Array.length adj in
  let deg =
    Array.map
      (fun a -> Array.fold_left (fun d v -> if keep v then d + 1 else d) 0 a)
      adj
  in
  let placed = Array.make n false in
  let stamp = Array.make n (-1) and level = Array.make n 0 in
  let queue = Array.make n 0 in
  let round = ref 0 in
  (* BFS from [s] over unplaced kept vertices: the number reached (in
     [queue]), the depth, and a least-degree vertex of the last level *)
  let bfs s =
    incr round;
    stamp.(s) <- !round;
    level.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      Array.iter
        (fun u ->
          if keep u && (not placed.(u)) && stamp.(u) <> !round then begin
            stamp.(u) <- !round;
            level.(u) <- level.(v) + 1;
            queue.(!tail) <- u;
            incr tail
          end)
        adj.(v)
    done;
    let depth = level.(queue.(!tail - 1)) in
    let far = ref queue.(!tail - 1) in
    for q = 0 to !tail - 1 do
      let v = queue.(q) in
      if level.(v) = depth && deg.(v) < deg.(!far) then far := v
    done;
    (!tail, depth, !far)
  in
  let order = Array.make n 0 and len = ref 0 in
  for root = 0 to n - 1 do
    if keep root && not placed.(root) then begin
      let reached, _, _ = bfs root in
      let start = ref root in
      for q = 0 to reached - 1 do
        if deg.(queue.(q)) < deg.(!start) then start := queue.(q)
      done;
      let _, d0, f0 = bfs !start in
      let depth = ref d0 and far = ref f0 and tries = ref 4 in
      while !tries > 0 do
        decr tries;
        let _, d, f = bfs !far in
        if d > !depth then begin
          start := !far;
          depth := d;
          far := f
        end
        else tries := 0
      done;
      let head = ref !len in
      placed.(!start) <- true;
      order.(!len) <- !start;
      incr len;
      while !head < !len do
        let v = order.(!head) in
        incr head;
        let fresh =
          List.filter (fun u -> keep u && not placed.(u)) (Array.to_list adj.(v))
          |> List.stable_sort (fun a b -> Int.compare deg.(a) deg.(b))
        in
        List.iter
          (fun u ->
            placed.(u) <- true;
            order.(!len) <- u;
            incr len)
          fresh
      done
    end
  done;
  Array.init !len (fun q -> order.(!len - 1 - q))

let analyse p =
  let n = p.n in
  let rowptr_a, colidx_a = transpose p in
  let ncol, colour, gptr, gcols =
    colour_columns p ~rowptr:rowptr_a ~colidx:colidx_a
  in
  (* ordering: RCM on the sparse part, dense vertices last *)
  let adj = adjacency p ~rowptr:rowptr_a ~colidx:colidx_a in
  let limit = max 24 (n / 4) in
  let dense = Array.map (fun a -> Array.length a > limit) adj in
  let sparse_order = rcm adj (fun v -> not dense.(v)) in
  let dense_order =
    List.filter (fun v -> dense.(v)) (List.init n Fun.id) |> Array.of_list
  in
  let perm = Array.append sparse_order dense_order in
  let iperm = Array.make n 0 in
  Array.iteri (fun r v -> iperm.(v) <- r) perm;
  (* symbolic LU without pivoting, row by row: row r of L + U is A's row
     plus, for each k < r in it (ascending), the U part of row k *)
  let mark = Array.make n (-1) and amark = Array.make n (-1) in
  let row = Array.make n 0 in
  let rowptr = Array.make (n + 1) 0 and diag = Array.make n 0 in
  let cols = buf_create (2 * Array.length p.rowidx) in
  let nflops = ref 0 in
  for r = 0 to n - 1 do
    let cnt = ref 0 and lo = ref r in
    let add c =
      if mark.(c) <> r then begin
        mark.(c) <- r;
        row.(!cnt) <- c;
        incr cnt;
        if c < !lo then lo := c
      end
    in
    add r;
    let i = perm.(r) in
    for q = rowptr_a.(i) to rowptr_a.(i + 1) - 1 do
      let c = iperm.(colidx_a.(q)) in
      amark.(c) <- r;
      add c
    done;
    for k = !lo to r - 1 do
      if mark.(k) = r then begin
        for q = diag.(k) + 1 to rowptr.(k + 1) - 1 do
          add (cols.data.(q) lsr 1)
        done;
        nflops := !nflops + 1 + (2 * (rowptr.(k + 1) - 1 - diag.(k)))
      end
    done;
    let sorted = Array.sub row 0 !cnt in
    Array.sort Int.compare sorted;
    Array.iter
      (fun c ->
        if c = r then diag.(r) <- cols.len;
        push cols ((c lsl 1) lor if amark.(c) = r then 1 else 0))
      sorted;
    rowptr.(r + 1) <- cols.len
  done;
  {
    sn = n;
    ncol;
    colour = pack colour;
    gptr = pack gptr;
    gcols = pack gcols;
    perm = pack perm;
    rowptr = pack rowptr;
    cols = pack (contents cols);
    diag = pack diag;
    nnz_a = Array.length p.rowidx;
    nflops = !nflops;
    ndense = Array.length dense_order;
  }

(* ---------- numeric phase ---------- *)

type work = {
  jac : float array;  (* J, per slot of L + U (0 on fill slots) *)
  lu : float array;
  diff : float array;  (* f(x + Σ h_j e_j) per colour, colour-major *)
  hs : float array;  (* the forward-difference step actually taken *)
  tmp : float array;
}

let make_work ~n ~slots ~diffs =
  {
    jac = Array.make slots 0.0;
    lu = Array.make slots 0.0;
    diff = Array.make diffs 0.0;
    hs = Array.make n 0.0;
    tmp = Array.make n 0.0;
  }

let work st = make_work ~n:st.sn ~slots:(fill st) ~diffs:(st.ncol * st.sn)

let fits st w =
  Array.length w.hs >= st.sn
  && Array.length w.lu >= fill st
  && Array.length w.diff >= st.ncol * st.sn

let grow st w =
  if fits st w then w
  else
    make_work
      ~n:(max st.sn (Array.length w.hs))
      ~slots:(max (fill st) (Array.length w.lu))
      ~diffs:(max (st.ncol * st.sn) (Array.length w.diff))

let jacobian st w ~f ~x ~fx ~xp ~fp =
  let n = st.sn in
  Vec.blit ~src:x ~dst:xp;
  for c = 0 to st.ncol - 1 do
    for q = at st.gptr c to at st.gptr (c + 1) - 1 do
      let j = at st.gcols q in
      let xj = x.(j) in
      let h = 1.5e-8 *. Float.max (Float.abs xj) 1e-300 in
      xp.(j) <- xj +. h;
      w.hs.(j) <- xp.(j) -. xj
    done;
    f ~y:xp ~dy:fp;
    Array.blit fp 0 w.diff (c * n) n;
    for q = at st.gptr c to at st.gptr (c + 1) - 1 do
      let j = at st.gcols q in
      xp.(j) <- x.(j)
    done
  done;
  for r = 0 to n - 1 do
    let i = at st.perm r in
    let base = fx.(i) in
    for p = at st.rowptr r to at st.rowptr (r + 1) - 1 do
      let code = at st.cols p in
      if code land 1 = 1 then begin
        let j = at st.perm (code lsr 1) in
        w.jac.(p) <- (w.diff.((at st.colour j * n) + i) -. base) /. w.hs.(j)
      end
      else w.jac.(p) <- 0.0
    done
  done

let factor st w ~sigma =
  let n = st.sn in
  let lu = w.lu and tmp = w.tmp and cols = st.cols in
  for p = 0 to fill st - 1 do
    lu.(p) <- -.w.jac.(p)
  done;
  let ok = ref true and r = ref 0 in
  while !ok && !r < n do
    let row = !r in
    let d0 = at st.diag row in
    lu.(d0) <- lu.(d0) +. sigma;
    let lo = at st.rowptr row and hi = at st.rowptr (row + 1) - 1 in
    for p = lo to hi do
      tmp.(at cols p lsr 1) <- lu.(p)
    done;
    for p = lo to d0 - 1 do
      let k = at cols p lsr 1 in
      let dk = at st.diag k in
      let l = tmp.(k) /. lu.(dk) in
      tmp.(k) <- l;
      for q = dk + 1 to at st.rowptr (k + 1) - 1 do
        let c = at cols q lsr 1 in
        tmp.(c) <- tmp.(c) -. (l *. lu.(q))
      done
    done;
    for p = lo to hi do
      lu.(p) <- tmp.(at cols p lsr 1)
    done;
    let d = Float.abs lu.(d0) in
    if not (d >= Float.min_float && d < Float.infinity) then ok := false;
    incr r
  done;
  !ok

let solve st w ~b ~x =
  let n = st.sn in
  let lu = w.lu and tmp = w.tmp and cols = st.cols in
  for r = 0 to n - 1 do
    let s = ref b.(at st.perm r) in
    for p = at st.rowptr r to at st.diag r - 1 do
      s := !s -. (lu.(p) *. tmp.(at cols p lsr 1))
    done;
    tmp.(r) <- !s
  done;
  for r = n - 1 downto 0 do
    let s = ref tmp.(r) in
    let d = at st.diag r in
    for p = d + 1 to at st.rowptr (r + 1) - 1 do
      s := !s -. (lu.(p) *. tmp.(at cols p lsr 1))
    done;
    tmp.(r) <- !s /. lu.(d)
  done;
  for r = 0 to n - 1 do
    x.(at st.perm r) <- tmp.(r)
  done

let to_dense st w =
  let n = st.sn in
  let m = Array.make_matrix n n 0.0 in
  for r = 0 to n - 1 do
    for p = at st.rowptr r to at st.rowptr (r + 1) - 1 do
      m.(at st.perm r).(at st.perm (at st.cols p lsr 1)) <- w.jac.(p)
    done
  done;
  m
