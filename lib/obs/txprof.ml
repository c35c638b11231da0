(* Per-transaction profile ledger.  Aggregate histograms answer "how
   slow", but a tail needs "why": the top-K capture retains the
   complete phase breakdown of the K slowest transactions, so p999 is
   explainable rather than just measurable.

   The capture is a fixed min-heap keyed on total duration whose K
   entries (and their phase arrays) are preallocated at creation;
   admitting a transaction copies ints into the evicted root and
   re-sifts by swapping entry references.  Recording is therefore O(K)
   worst-case with zero allocation, keeping the enabled profiler
   inside the same steady-state allocation budget as the disabled
   one. *)

let nphases = 9
let ph_exec = 0
let ph_validate = 1
let ph_log = 2
let ph_fence = 3
let ph_write_back = 4
let ph_trunc_wait = 5
let ph_backoff = 6
let ph_drain_wait = 7
let ph_other = 8

let phase_name = function
  | 0 -> "exec"
  | 1 -> "validate"
  | 2 -> "log"
  | 3 -> "fence"
  | 4 -> "write_back"
  | 5 -> "trunc_wait"
  | 6 -> "backoff"
  | 7 -> "drain_wait"
  | 8 -> "other"
  | _ -> "?"

type entry = {
  mutable txid : int;
  mutable tid : int;
  mutable start_ts : int;
  mutable total_ns : int;
  mutable retries : int;
  mutable bytes_logged : int;
  mutable writes : int;
  phases : int array;  (* nphases, simulated ns per phase *)
}

type t = {
  k : int;
  heap : entry array;  (* min-heap on total_ns over [0, len) *)
  mutable len : int;
  h_phase : Metrics.histogram array;
  h_total : Metrics.histogram;
  mutable recorded : int;
}

let default_k = 16

let create ?(k = default_k) m =
  if k < 1 then invalid_arg "Txprof.create: k";
  {
    k;
    heap =
      Array.init k (fun _ ->
          {
            txid = 0;
            tid = 0;
            start_ts = 0;
            total_ns = -1;
            retries = 0;
            bytes_logged = 0;
            writes = 0;
            phases = Array.make nphases 0;
          });
    len = 0;
    h_phase =
      Array.init nphases (fun i ->
          Metrics.histogram m
            (Printf.sprintf "mtm.txn.phase.%s_ns" (phase_name i)));
    h_total = Metrics.histogram m "mtm.txn.total_ns";
    recorded = 0;
  }

let count t = t.recorded
let k t = t.k
let captured t = t.len

let[@inline] fill e ~txid ~tid ~start_ts ~total_ns ~retries ~bytes_logged
    ~writes ~phases =
  e.txid <- txid;
  e.tid <- tid;
  e.start_ts <- start_ts;
  e.total_ns <- total_ns;
  e.retries <- retries;
  e.bytes_logged <- bytes_logged;
  e.writes <- writes;
  Array.blit phases 0 e.phases 0 nphases

let[@inline] swap h i j =
  let tmp = h.(i) in
  h.(i) <- h.(j);
  h.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if t.heap.(i).total_ns < t.heap.(p).total_ns then begin
      swap t.heap i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = ref i in
  if l < t.len && t.heap.(l).total_ns < t.heap.(!s).total_ns then s := l;
  if r < t.len && t.heap.(r).total_ns < t.heap.(!s).total_ns then s := r;
  if !s <> i then begin
    swap t.heap i !s;
    sift_down t !s
  end

let record t ~txid ~tid ~start_ts ~total_ns ~retries ~bytes_logged ~writes
    ~phases =
  t.recorded <- t.recorded + 1;
  Metrics.record t.h_total total_ns;
  for i = 0 to nphases - 1 do
    Metrics.record t.h_phase.(i) phases.(i)
  done;
  if t.len < t.k then begin
    fill t.heap.(t.len) ~txid ~tid ~start_ts ~total_ns ~retries ~bytes_logged
      ~writes ~phases;
    t.len <- t.len + 1;
    sift_up t (t.len - 1)
  end
  else if total_ns > t.heap.(0).total_ns then begin
    fill t.heap.(0) ~txid ~tid ~start_ts ~total_ns ~retries ~bytes_logged
      ~writes ~phases;
    sift_down t 0
  end

let top t =
  Array.to_list (Array.sub t.heap 0 t.len)
  |> List.sort (fun a b -> compare (b.total_ns : int) a.total_ns)

(* ------------------------------------------------------------------ *)
(* Tail-attribution table                                              *)

let phase_sum e = Array.fold_left ( + ) 0 e.phases

let table t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "tail attribution: top-%d slowest of %d transactions (sim ns)\n" t.len
       t.recorded);
  Buffer.add_string buf
    (Printf.sprintf "%8s %4s %10s %6s %6s %6s" "txid" "tid" "total" "retry"
       "bytes" "wr");
  for i = 0 to nphases - 1 do
    Buffer.add_string buf (Printf.sprintf " %10s" (phase_name i))
  done;
  Buffer.add_string buf (Printf.sprintf " %6s\n" "sum%");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%8d %4d %10d %6d %6d %6d" e.txid e.tid e.total_ns
           e.retries e.bytes_logged e.writes);
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf " %10d" v))
        e.phases;
      let pct =
        if e.total_ns <= 0 then 100.0
        else 100.0 *. float_of_int (phase_sum e) /. float_of_int e.total_ns
      in
      Buffer.add_string buf (Printf.sprintf " %6.1f\n" pct))
    (top t);
  Buffer.contents buf
