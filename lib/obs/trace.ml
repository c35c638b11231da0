type kind =
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Txn_retry
  | Fence
  | Flush
  | Wc_drain
  | Cache_evict
  | Log_append
  | Log_truncate
  | Log_stall
  | Recovery_replay
  | Heap_alloc
  | Heap_free
  | Swap_in
  | Swap_out
  | Sched_decision
  | Pmcheck_violation
  | Req_shed
  | Crash

let kind_code = function
  | Txn_begin -> 0
  | Txn_commit -> 1
  | Txn_abort -> 2
  | Txn_retry -> 3
  | Fence -> 4
  | Flush -> 5
  | Wc_drain -> 6
  | Cache_evict -> 7
  | Log_append -> 8
  | Log_truncate -> 9
  | Log_stall -> 10
  | Recovery_replay -> 11
  | Heap_alloc -> 12
  | Heap_free -> 13
  | Swap_in -> 14
  | Swap_out -> 15
  | Sched_decision -> 16
  | Pmcheck_violation -> 17
  | Req_shed -> 18
  | Crash -> 19

let flow_code = function `Start -> 20 | `Step -> 21 | `End -> 22

(* Name and payload label of every code, kinds then flows. *)
let codes =
  [|
    ("Txn_begin", "writes");
    ("Txn_commit", "writes");
    ("Txn_abort", "writes");
    ("Txn_retry", "writes");
    ("Fence", "bytes");
    ("Flush", "addr");
    ("Wc_drain", "words");
    ("Cache_evict", "line");
    ("Log_append", "words");
    ("Log_truncate", "words");
    ("Log_stall", "words");
    ("Recovery_replay", "ts");
    ("Heap_alloc", "bytes");
    ("Heap_free", "addr");
    ("Swap_in", "frame");
    ("Swap_out", "frame");
    ("Sched_decision", "key");
    ("Pmcheck_violation", "addr");
    ("Req_shed", "tenant");
    ("Crash", "op");
    ("Flow_start", "txid");
    ("Flow_step", "txid");
    ("Flow_end", "txid");
  |]

let code_name c = fst codes.(c)
let arg_label c = snd codes.(c)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)

(* ts/dur are microseconds in the trace_event format; print the
   simulated nanoseconds as fractional microseconds so nothing is
   lost. *)
let us ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

let event_json buf (e : Flight.entry) =
  if e.code >= 20 then begin
    (* Codes 20..22 are flow start/step/end.  Flow events bind on (cat,
       name, id): every phase of one transaction's flow shares name
       "txn" and id = txid.  The end event binds to the enclosing slice
       ("bp":"e") so the arrow lands on the span that retired the
       work. *)
    Printf.bprintf buf "{\"name\":\"txn\",\"cat\":\"flow\",\"ph\":\"%s\""
      (match e.code with 20 -> "s" | 21 -> "t" | _ -> "f");
    if e.code = 22 then Buffer.add_string buf ",\"bp\":\"e\"";
    Printf.bprintf buf
      ",\"id\":%d,\"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"txid\":%d}}" e.arg
      (us e.ts) e.tid e.arg
  end
  else begin
    Printf.bprintf buf "{\"name\":%s,\"cat\":\"mnemosyne\",\"ph\":\"%s\""
      (Json.string (code_name e.code))
      (if e.dur < 0 then "i" else "X");
    if e.dur < 0 then Buffer.add_string buf ",\"s\":\"t\""
    else Printf.bprintf buf ",\"dur\":%s" (us e.dur);
    Printf.bprintf buf ",\"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":{%s:%d}}"
      (us e.ts) e.tid
      (Json.string (arg_label e.code))
      e.arg
  end

let to_chrome_json ring =
  let events = Flight.traced ring in
  let buf = Buffer.create (256 * (List.length events + 2)) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  (* Events are recorded in completion order; emit them in start-time
     order (longer spans first on ties, so nesting reads naturally). *)
  let by_start =
    List.stable_sort
      (fun (a : Flight.entry) (b : Flight.entry) ->
        match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
      events
  in
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      event_json buf e)
    by_start;
  Printf.bprintf buf
    "\n],\"otherData\":{\"clock\":\"simulated\",\"dropped_events\":%d}}\n"
    (Flight.dropped ring);
  Buffer.contents buf

(* The one place traces reach disk: every saver shares the
   dropped-event warning, so a silently truncated trace is always
   visible on stderr as well as in the JSON metadata above. *)
let save_chrome ring path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_chrome_json ring));
  if Flight.dropped ring > 0 then
    Printf.eprintf
      "warning: trace %s dropped %d oldest events (ring capacity %d)\n%!"
      path (Flight.dropped ring) Flight.trace_capacity

(* ------------------------------------------------------------------ *)
(* Plain-text rollup                                                   *)

let summary ring =
  let events = Flight.traced ring in
  let count = Array.make (Array.length codes) 0 in
  let total = Array.make (Array.length codes) 0 in
  List.iter
    (fun (e : Flight.entry) ->
      count.(e.code) <- count.(e.code) + 1;
      total.(e.code) <- total.(e.code) + max 0 e.dur)
    events;
  let rows =
    List.filter (fun c -> count.(c) > 0) (List.init (Array.length codes) Fun.id)
    |> List.stable_sort (fun a b -> compare total.(b) total.(a))
  in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%-18s %10s %14s %12s\n" "event" "count" "total ns"
    "mean ns";
  List.iter
    (fun c ->
      Printf.bprintf buf "%-18s %10d %14d %12.1f\n" (code_name c) count.(c)
        total.(c)
        (float_of_int total.(c) /. float_of_int count.(c)))
    rows;
  Printf.bprintf buf "(%d events held, %d dropped oldest-first)\n"
    (List.length events) (Flight.dropped ring);
  Buffer.contents buf
