(* Binary min-heap over four parallel lanes: time (float), insertion seq
   (int), an immediate int payload and an auxiliary float. It sifts on
   (time, seq) like the generic ['a option] heap in test/event_heap.ml,
   the order oracle of its QCheck suite, but the payload is an unboxed
   immediate, so pushing and popping move only raw words — no per-event
   record, option or tuple. The hot path reads the root through
   {!root_time}/{!root_payload}/{!root_aux} and removes it with
   {!drop_root}; the allocating {!pop} exists for tests. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable aux : float array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 256) () =
  let capacity = max capacity 1 in
  {
    times = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    payloads = Array.make capacity 0;
    aux = Array.make capacity 0.0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* lint: allow zero-alloc: doubling growth, amortized O(1) and absent in steady state *)
let grow t =
  let n = 2 * Array.length t.times in
  let times = Array.make n 0.0 in
  let seqs = Array.make n 0 in
  let payloads = Array.make n 0 in
  let aux = Array.make n 0.0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  Array.blit t.aux 0 aux 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads;
  t.aux <- aux

(* (time, seq) lexicographic order — [Float.equal], not polymorphic [=];
   [push] rejects NaN so the tie check is a plain bit comparison. *)
let[@inline] precedes t i j =
  t.times.(i) < t.times.(j)
  || (Float.equal t.times.(i) t.times.(j) && t.seqs.(i) < t.seqs.(j))

let[@inline] swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let p = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- p;
  let a = t.aux.(i) in
  t.aux.(i) <- t.aux.(j);
  t.aux.(j) <- a

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let smallest =
      let s = if precedes t l i then l else i in
      let r = l + 1 in
      if r < t.size && precedes t r s then r else s
    in
    if smallest <> i then begin
      swap t i smallest;
      sift_down t smallest
    end
  end

let[@inline] push t ~time ~payload ~aux =
  (* lint: allow zero-alloc: cold NaN guard, raises before the hot path *)
  if Float.is_nan time then invalid_arg "Packed_heap.push: NaN time";
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.aux.(i) <- aux;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let[@inline] root_time t = t.times.(0)
let[@inline] root_payload t = t.payloads.(0)
let[@inline] root_aux t = t.aux.(0)

let drop_root t =
  (* lint: allow zero-alloc: cold empty-heap guard, raises before the hot path *)
  if t.size = 0 then invalid_arg "Packed_heap.drop_root: empty heap";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.times.(0) <- t.times.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.payloads.(0) <- t.payloads.(t.size);
    t.aux.(0) <- t.aux.(t.size);
    sift_down t 0
  end

let pop t =
  if t.size = 0 then None
  else begin
    let time = root_time t in
    let payload = root_payload t in
    let aux = root_aux t in
    drop_root t;
    Some (time, payload, aux)
  end

let clear t =
  t.size <- 0;
  t.next_seq <- 0
