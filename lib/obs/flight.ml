(* The one event ring: the always-on flight recorder, and the trace
   once tracing starts.  Entries are five ints laid out in one int
   array, so recording is five int stores and two counter bumps — no
   allocation, no simulated-time charge, no randomness — and the ring
   stays on under every run, including the bit-identity-checked
   benchmarks and crash sweeps. *)

let flight_capacity = 256
let trace_capacity = 65536

(* code, ts, dur, tid, arg *)
let stride = 5

type entry = { code : int; ts : int; dur : int; tid : int; arg : int }

type t = {
  mutable buf : int array;
  mutable cap : int;  (* entries [buf] holds *)
  mutable limit : int;  (* entries [buf] may grow to *)
  mutable next : int;
  mutable total : int;
  mutable first : int;  (* [total] before [buf]'s first entry was recorded *)
  mutable trace_from : int;  (* [total] when tracing started; -1 = off *)
}

let create () =
  {
    buf = Array.make (stride * flight_capacity) 0;
    cap = flight_capacity;
    limit = flight_capacity;
    next = 0;
    total = 0;
    first = 0;
    trace_from = -1;
  }

(* [buf] is full.  Below [limit] it has never wrapped, so its entries
   sit in order from slot 0 and doubling it is one blit: a traced run
   pays for the entries it records, not for the whole trace capacity. *)
let wrap_or_grow t =
  if t.cap = t.limit then t.next <- 0
  else begin
    let cap = min t.limit (2 * t.cap) in
    let buf = Array.make (stride * cap) 0 in
    Array.blit t.buf 0 buf 0 (stride * t.cap);
    t.buf <- buf;
    t.next <- t.cap;
    t.cap <- cap
  end

let[@inline] record t ~code ~ts ~dur ~tid ~arg =
  let b = t.next * stride and buf = t.buf in
  Array.unsafe_set buf b code;
  Array.unsafe_set buf (b + 1) ts;
  Array.unsafe_set buf (b + 2) dur;
  Array.unsafe_set buf (b + 3) tid;
  Array.unsafe_set buf (b + 4) arg;
  let n = t.next + 1 in
  if n = t.cap then wrap_or_grow t else t.next <- n;
  t.total <- t.total + 1

let tracing t = t.trace_from >= 0
let total t = t.total
let held t = min (t.total - t.first) t.cap

(* Array offset of the [i]-th held entry, oldest first. *)
let offset t i = (t.next - held t + i + t.cap) mod t.cap * stride

let start_trace t =
  if not (tracing t) then begin
    (* The held flight window moves to the front of a ring that may
       grow to the trace capacity, so a flight dump taken later still
       reaches back past the switch. *)
    let n = held t in
    let buf = Array.make (stride * 2 * flight_capacity) 0 in
    for i = 0 to n - 1 do
      Array.blit t.buf (offset t i) buf (i * stride) stride
    done;
    t.buf <- buf;
    t.cap <- 2 * flight_capacity;
    t.limit <- trace_capacity;
    t.next <- n;
    t.first <- t.total - n;
    t.trace_from <- t.total
  end

let last t n =
  let h = held t in
  let n = min n h in
  List.init n (fun i ->
      let b = offset t (h - n + i) and buf = t.buf in
      {
        code = buf.(b);
        ts = buf.(b + 1);
        dur = buf.(b + 2);
        tid = buf.(b + 3);
        arg = buf.(b + 4);
      })

let traced t = if tracing t then last t (t.total - t.trace_from) else []

let dropped t =
  if tracing t then max 0 (t.total - t.trace_from - t.cap) else 0
