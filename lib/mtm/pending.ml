(* Both rings have power-of-two capacities, so a slot is an index
   masked by the capacity minus one.  A record's addresses start where
   the previous record's end, so only the oldest record's first address
   slot is kept. *)
type t = {
  mutable spans : int array;
  mutable txids : int array;
  mutable counts : int array;  (* write addresses per record *)
  mutable first : int;  (* slot of the oldest record *)
  mutable len : int;  (* records queued *)
  mutable addrs : int array;
  mutable a_first : int;  (* slot of the oldest record's first address *)
  mutable a_len : int;  (* addresses queued *)
}

let create () =
  {
    spans = Array.make 8 0;
    txids = Array.make 8 0;
    counts = Array.make 8 0;
    first = 0;
    len = 0;
    addrs = Array.make 64 0;
    a_first = 0;
    a_len = 0;
  }

let length t = t.len
let is_empty t = t.len = 0

(* The [len] elements of ring [a] from slot [first] on, unrolled to the
   start of a fresh array of [cap] elements (also how a batch's linear
   arrays grow, from slot 0). *)
let unroll a ~first ~len cap =
  let b = Array.make cap 0 in
  let k = min len (Array.length a - first) in
  Array.blit a first b 0 k;
  Array.blit a 0 b k (len - k);
  b

let rec double_past need cap =
  if cap >= need then cap else double_past need (2 * cap)

let push t ~span ~txid src n =
  if t.len = Array.length t.spans then begin
    let cap = 2 * t.len in
    t.spans <- unroll t.spans ~first:t.first ~len:t.len cap;
    t.txids <- unroll t.txids ~first:t.first ~len:t.len cap;
    t.counts <- unroll t.counts ~first:t.first ~len:t.len cap;
    t.first <- 0
  end;
  let s = (t.first + t.len) land (Array.length t.spans - 1) in
  t.spans.(s) <- span;
  t.txids.(s) <- txid;
  t.counts.(s) <- n;
  t.len <- t.len + 1;
  if t.a_len + n > Array.length t.addrs then begin
    let cap = double_past (t.a_len + n) (2 * Array.length t.addrs) in
    t.addrs <- unroll t.addrs ~first:t.a_first ~len:t.a_len cap;
    t.a_first <- 0
  end;
  let cap = Array.length t.addrs in
  let at = (t.a_first + t.a_len) land (cap - 1) in
  let k = min n (cap - at) in
  Array.blit src 0 t.addrs at k;
  Array.blit src k t.addrs 0 (n - k);
  t.a_len <- t.a_len + n

type batch = {
  mutable b_spans : int array;
  mutable b_txids : int array;
  mutable b_counts : int array;
  mutable nrecs : int;
  mutable flat : int array;
  mutable nflat : int;
}

let batch () =
  {
    b_spans = Array.make 8 0;
    b_txids = Array.make 8 0;
    b_counts = Array.make 8 0;
    nrecs = 0;
    flat = Array.make 64 0;
    nflat = 0;
  }

let reset b =
  b.nrecs <- 0;
  b.nflat <- 0

let take t ~limit b =
  let n = min limit t.len in
  let mask = Array.length t.spans - 1 in
  let acap = Array.length t.addrs in
  for _ = 1 to n do
    let s = t.first and c = t.counts.(t.first) in
    if b.nrecs = Array.length b.b_spans then begin
      let cap = 2 * b.nrecs in
      b.b_spans <- unroll b.b_spans ~first:0 ~len:b.nrecs cap;
      b.b_txids <- unroll b.b_txids ~first:0 ~len:b.nrecs cap;
      b.b_counts <- unroll b.b_counts ~first:0 ~len:b.nrecs cap
    end;
    b.b_spans.(b.nrecs) <- t.spans.(s);
    b.b_txids.(b.nrecs) <- t.txids.(s);
    b.b_counts.(b.nrecs) <- c;
    b.nrecs <- b.nrecs + 1;
    if b.nflat + c > Array.length b.flat then
      b.flat <-
        unroll b.flat ~first:0 ~len:b.nflat
          (double_past (b.nflat + c) (2 * Array.length b.flat));
    let k = min c (acap - t.a_first) in
    Array.blit t.addrs t.a_first b.flat b.nflat k;
    Array.blit t.addrs 0 b.flat (b.nflat + k) (c - k);
    b.nflat <- b.nflat + c;
    t.a_first <- (t.a_first + c) land (acap - 1);
    t.a_len <- t.a_len - c;
    t.first <- (s + 1) land mask;
    t.len <- t.len - 1
  done;
  n

let records b = b.nrecs
let span b i = b.b_spans.(i)
let txid b i = b.b_txids.(i)
let writes b i = b.b_counts.(i)
let naddrs b = b.nflat
let addrs b = b.flat
