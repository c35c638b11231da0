(* Tests for the observability layer: histogram accuracy against a
   brute-force oracle, counter registry, the event ring's overflow and
   its two readers (flight dump and Chrome export), Chrome JSON
   round-trip, and the one-fence-per-commit durability guarantee of redo
   logging. *)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let oracle_percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.round (p /. 100.0 *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) idx))

let test_histogram_oracle () =
  let rng = Random.State.make [| 0xbeef |] in
  let h = Obs.Metrics.make_histogram "test" in
  let samples =
    Array.init 5000 (fun i ->
        (* mix of exact small values and log-spread large ones *)
        if i land 1 = 0 then Random.State.int rng 512
        else 1 lsl (9 + Random.State.int rng 20) lor Random.State.int rng 4096)
  in
  Array.iter (fun s -> Obs.Metrics.record h s) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length samples in
  Alcotest.(check int) "count" n (Obs.Metrics.hcount h);
  Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 samples)
    (Obs.Metrics.hsum h);
  Alcotest.(check int) "min exact" sorted.(0) (Obs.Metrics.hmin h);
  Alcotest.(check int) "max exact" sorted.(n - 1) (Obs.Metrics.hmax h);
  List.iter
    (fun p ->
      let want = oracle_percentile sorted p in
      let got = Obs.Metrics.percentile h p in
      if want < 512 then
        Alcotest.(check int) (Printf.sprintf "p%.0f exact" p) want got
      else begin
        (* log-linear quantization: the bucket's lower bound, within
           1/512 relative error *)
        if got > want || want - got > (want / 512) + 1 then
          Alcotest.failf "p%.0f: got %d for oracle %d (error > 1/512)" p got
            want
      end)
    [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ]

let test_histogram_small_exact () =
  (* every value below 2^sub_bits has its own bucket: percentiles are
     the exact order statistics *)
  let h = Obs.Metrics.make_histogram "exact" in
  for v = 100 downto 1 do
    Obs.Metrics.record h v
  done;
  (* rank round(0.5 * 99) = 50, so the 51st smallest — the same
     convention the list-backed Workload.Stats used *)
  Alcotest.(check int) "p50" 51 (Obs.Metrics.percentile h 50.0);
  Alcotest.(check int) "p0" 1 (Obs.Metrics.percentile h 0.0);
  Alcotest.(check int) "p100" 100 (Obs.Metrics.percentile h 100.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Obs.Metrics.hmean h)

let test_counters () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a.b" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "value" 42 (Obs.Metrics.counter_value c);
  (* get-or-create returns the same counter *)
  let c' = Obs.Metrics.counter m "a.b" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "shared" 43 (Obs.Metrics.counter_value c);
  Alcotest.(check string) "registry"
    (Printf.sprintf "%-36s %12d\n" "a.b" 43)
    (Obs.Metrics.dump m)

(* A histogram allocates its buckets on the first sample.  One made and
   never recorded into costs its record, not 28,160 bucket words, and
   prints what an empty histogram always printed. *)
let test_unrecorded_histogram () =
  let m = Obs.Metrics.create () in
  let a0 = Gc.allocated_bytes () in
  let a1 = Gc.allocated_bytes () in
  let h = Obs.Metrics.histogram m "mtm.commit.total_ns" in
  let a2 = Gc.allocated_bytes () in
  (* less the cost of reading the counter itself *)
  let words = (a2 -. a1 -. (a1 -. a0)) /. float_of_int (Sys.word_size / 8) in
  if words > 64.0 then
    Alcotest.failf "an unrecorded histogram allocated %.0f words (budget 64)"
      words;
  let dump =
    "mtm.commit.total_ns                  n=0        mean=0.0        "
    ^ "min=0        p50=0        p99=0        max=0\n"
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"counters\": {},";
        "  \"gauges\": {},";
        "  \"histograms\": {";
        "    \"mtm.commit.total_ns\": {\"count\": 0, \"sum\": 0, \"min\": 0, \
         \"max\": 0, \"mean\": 0, \"p50\": 0, \"p90\": 0, \"p99\": 0, \
         \"p999\": 0}";
        "  }";
        "}";
        "";
      ]
  in
  Alcotest.(check string) "dump before a sample" dump (Obs.Metrics.dump m);
  Alcotest.(check string) "json before a sample" json (Obs.Metrics.to_json m);
  Alcotest.(check int) "p99 before a sample" 0 (Obs.Metrics.percentile h 99.0);
  Obs.Metrics.record h 700;
  Alcotest.(check int) "p50 of one sample" 700 (Obs.Metrics.percentile h 50.0)

(* ------------------------------------------------------------------ *)
(* Chrome JSON round-trip, via a minimal JSON parser *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < String.length s then
      match peek () with ' ' | '\n' | '\t' | '\r' -> advance (); skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | 'n' -> Buffer.add_char buf '\n'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              Buffer.add_char buf (Char.chr (code land 0xff))
          | c -> Buffer.add_char buf c);
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            if peek () = ',' then begin advance (); members ((key, v) :: acc) end
            else begin expect '}'; List.rev ((key, v) :: acc) end
          in
          Obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Arr [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            if peek () = ',' then begin advance (); elems (v :: acc) end
            else begin expect ']'; List.rev (v :: acc) end
          in
          Arr (elems [])
        end
    | '"' -> Str (parse_string ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
        let start = !pos in
        while !pos < String.length s
              && (match peek () with
                  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
                  | _ -> false)
        do advance () done;
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  v

let field name = function
  | Obj kvs -> List.assoc name kvs
  | _ -> failwith "not an object"

let ns_of_us = function
  | Num us -> int_of_float (Float.round (us *. 1000.0))
  | _ -> failwith "not a number"

let contains ~what needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  if not (go 0) then Alcotest.failf "%s missing %S in:\n%s" what needle hay

let chrome_events obs =
  let doc = parse_json (Obs.Trace.to_chrome_json obs.Obs.flight) in
  match field "traceEvents" doc with
  | Arr l -> l
  | _ -> Alcotest.fail "traceEvents"

let traced_ts obs =
  List.map
    (fun (e : Obs.Flight.entry) -> e.ts)
    (Obs.Flight.traced obs.Obs.flight)

(* ------------------------------------------------------------------ *)
(* The event ring *)

(* Overflow at the real trace capacity: the oldest entries go first and
   are counted, and the count reaches the Chrome metadata.  Events
   recorded before tracing started stay in the flight window but are
   not part of the trace. *)
let test_ring_overflow () =
  let obs = Obs.create () in
  for i = 1 to 10 do
    Obs.instant_at obs Obs.Trace.Flush ~ts:(-i) ~arg:i
  done;
  Obs.enable_trace obs;
  let cap = Obs.Flight.trace_capacity in
  for i = 0 to cap + 3 do
    Obs.instant_at obs Obs.Trace.Fence ~ts:i ~arg:i
  done;
  let ts = traced_ts obs in
  Alcotest.(check int) "held" cap (List.length ts);
  Alcotest.(check int) "dropped" 4 (Obs.Flight.dropped obs.Obs.flight);
  Alcotest.(check (list int)) "oldest dropped first" [ 4; 5; 6 ]
    (List.filteri (fun i _ -> i < 3) ts);
  contains ~what:"chrome json" "\"dropped_events\":4}"
    (Obs.Trace.to_chrome_json obs.Obs.flight);
  (* tracing enabled after setup (the untraced ring has wrapped): only
     the later events are traced, and the flight window spans the
     switch in order *)
  let obs = Obs.create () in
  for i = 1 to 300 do
    Obs.instant_at obs Obs.Trace.Flush ~ts:i ~arg:0
  done;
  Obs.enable_trace obs;
  Obs.instant_at obs Obs.Trace.Fence ~ts:301 ~arg:0;
  Alcotest.(check (list int)) "trace starts at enable" [ 301 ] (traced_ts obs);
  Alcotest.(check (list int))
    "flight window spans the switch" (List.init 256 (fun i -> 46 + i))
    (List.map
       (fun (e : Obs.Flight.entry) -> e.ts)
       (Obs.Flight.last obs.Obs.flight Obs.Flight.flight_capacity))

(* The flight dump's rows, as (ts, name, arg). *)
let flight_rows obs =
  let lines = String.split_on_char '\n' (Obs.flight_dump obs) in
  let rec table = function
    | [] | "" :: _ -> []
    | l :: rest -> (
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | [ ts; _tid; name; _dur; arg ] ->
            (int_of_string ts, name, int_of_string arg) :: table rest
        | _ -> Alcotest.failf "flight row %S" l)
  in
  match lines with
  | _title :: _header :: rows -> table rows
  | _ -> Alcotest.fail "flight dump header"

(* The chrome events' (ts, name, payload) triples. *)
let chrome_rows obs =
  List.map
    (fun e ->
      let arg =
        match field "args" e with
        | Obj [ (_, Num v) ] -> int_of_float v
        | _ -> Alcotest.fail "args"
      in
      let name = match field "name" e with Str s -> s | _ -> "?" in
      (ns_of_us (field "ts" e), name, arg))
    (chrome_events obs)

(* One ring, two readers: with tracing on and more events than the
   flight window, the flight dump lists exactly the last 256 events the
   Chrome export ends with. *)
let test_flight_dump_ends_trace () =
  let obs = Obs.create ~tracing:true () in
  let kinds = Obs.Trace.[| Fence; Cache_evict; Log_append |] in
  for i = 0 to 299 do
    let kind = kinds.(i mod 3) in
    if i mod 2 = 0 then Obs.instant_at obs kind ~ts:(10 * i) ~arg:i
    else Obs.complete obs kind ~ts:(10 * i) ~dur:5 ~arg:i
  done;
  let chrome = chrome_rows obs in
  Alcotest.(check int) "chrome holds the whole trace" 300 (List.length chrome);
  Alcotest.(check (list (triple int string int)))
    "flight dump = chrome tail"
    (List.filteri (fun i _ -> i >= 300 - Obs.Flight.flight_capacity) chrome)
    (flight_rows obs)

(* The crash explorer's marker prints under one name in both outputs. *)
let test_crash_marker_name () =
  let obs = Obs.create ~tracing:true () in
  Obs.instant_at obs Obs.Trace.Crash ~ts:5 ~arg:17;
  let rows = Alcotest.(list (triple int string int)) in
  Alcotest.check rows "chrome" [ (5, "Crash", 17) ] (chrome_rows obs);
  Alcotest.check rows "flight dump" [ (5, "Crash", 17) ] (flight_rows obs)

(* ------------------------------------------------------------------ *)
(* Metrics JSON export *)

(* The document is a point-in-time snapshot of the registry: counters,
   gauges sampled while it is built, and histogram summaries, all
   round-tripping through a real parser. *)
let test_snapshot_json () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "scm.fences" in
  Obs.Metrics.incr ~by:3 c;
  let lines = ref 41 in
  Obs.Metrics.set_gauge (Obs.Metrics.gauge m "cache.lines") (fun () -> !lines);
  let h = Obs.Metrics.histogram m "lat_ns" in
  List.iter (fun v -> Obs.Metrics.record h v) [ 10; 20; 30; 40 ];
  incr lines;
  let doc = parse_json (Obs.Metrics.to_json m) in
  let num what = function
    | Num v -> v
    | _ -> Alcotest.failf "%s: not a number" what
  in
  Alcotest.(check (list string))
    "sections" [ "counters"; "gauges"; "histograms" ]
    (match doc with Obj kvs -> List.map fst kvs | _ -> []);
  Alcotest.(check (float 0.0)) "counter" 3.0
    (num "counter" (field "scm.fences" (field "counters" doc)));
  Alcotest.(check (float 0.0)) "gauge sampled at export time" 42.0
    (num "gauge" (field "cache.lines" (field "gauges" doc)));
  let hist = field "lat_ns" (field "histograms" doc) in
  List.iter
    (fun (k, want) ->
      Alcotest.(check (float 1e-9)) ("hist " ^ k) want (num k (field k hist)))
    [ ("count", 4.0); ("sum", 100.0); ("min", 10.0); ("max", 40.0);
      ("mean", 25.0) ];
  (* names are escaped: a quote in a name cannot break the document *)
  Obs.Metrics.incr (Obs.Metrics.counter m "odd\"name");
  let doc = parse_json (Obs.Metrics.to_json m) in
  Alcotest.(check (float 0.0)) "escaped name" 1.0
    (num "escaped" (field "odd\"name" (field "counters" doc)))

(* ------------------------------------------------------------------ *)
(* Chrome export *)

let test_chrome_roundtrip () =
  let obs = Obs.create ~tracing:true () in
  Obs.set_tid obs 3;
  Obs.complete obs Obs.Trace.Txn_commit ~ts:1_234_567 ~dur:89 ~arg:7;
  Obs.set_tid obs 1;
  Obs.instant_at obs Obs.Trace.Log_truncate ~ts:2_000_001 ~arg:64;
  let doc = parse_json (Obs.Trace.to_chrome_json obs.Obs.flight) in
  (match field "displayTimeUnit" doc with
  | Str "ns" -> ()
  | _ -> Alcotest.fail "displayTimeUnit");
  let evs = match field "traceEvents" doc with Arr l -> l | _ -> [] in
  Alcotest.(check int) "event count" 2 (List.length evs);
  let commit = List.nth evs 0 and trunc = List.nth evs 1 in
  (match field "name" commit with
  | Str "Txn_commit" -> ()
  | _ -> Alcotest.fail "name");
  (match field "ph" commit with Str "X" -> () | _ -> Alcotest.fail "ph X");
  Alcotest.(check int) "ts ns preserved" 1_234_567 (ns_of_us (field "ts" commit));
  Alcotest.(check int) "dur ns preserved" 89 (ns_of_us (field "dur" commit));
  (match field "args" commit with
  | Obj [ ("writes", Num 7.0) ] -> ()
  | _ -> Alcotest.fail "args");
  (match field "ph" trunc with Str "i" -> () | _ -> Alcotest.fail "ph i");
  Alcotest.(check int) "instant ts" 2_000_001 (ns_of_us (field "ts" trunc))

(* The causal flow stitching: a transaction id stamped into flow
   start/step/end events must survive the Chrome export as both the
   binding id and the args payload, or the arrows in the viewer would
   connect the wrong transactions. *)
let test_flow_roundtrip () =
  let obs = Obs.create ~tracing:true () in
  List.iteri
    (fun i phase ->
      Obs.set_clock obs (fun () -> 100 * (i + 1));
      Obs.set_tid obs i;
      Obs.flow obs ~phase ~id:77)
    [ `Start; `Step; `End ];
  let evs = chrome_events obs in
  Alcotest.(check int) "event count" 3 (List.length evs);
  let ph e = match field "ph" e with Str s -> s | _ -> "?" in
  Alcotest.(check (list string)) "flow phases" [ "s"; "t"; "f" ]
    (List.map ph evs);
  List.iter
    (fun e ->
      (match field "name" e with
      | Str "txn" -> ()
      | _ -> Alcotest.fail "flow name");
      (match field "cat" e with
      | Str "flow" -> ()
      | _ -> Alcotest.fail "flow cat");
      (* Chrome binds flow arrows on (cat, name, id): the id IS the
         transaction id, and it is repeated in args for hovering *)
      (match field "id" e with
      | Num 77.0 -> ()
      | _ -> Alcotest.fail "flow id = txid");
      match field "txid" (field "args" e) with
      | Num 77.0 -> ()
      | _ -> Alcotest.fail "args txid")
    evs;
  (* the end event binds to the enclosing slice *)
  (match field "bp" (List.nth evs 2) with
  | Str "e" -> ()
  | _ -> Alcotest.fail "end binding point");
  (match List.assoc_opt "bp" (match List.hd evs with Obj o -> o | _ -> []) with
  | None -> ()
  | Some _ -> Alcotest.fail "start has no binding point")

(* ------------------------------------------------------------------ *)
(* Transaction profile ledger *)

(* Top-K admission is a min-heap: feed totals in an adversarial order
   (ascending run, then descending, duplicates of the cut boundary)
   and the capture must still hold exactly the K largest, slowest
   first. *)
let test_topk_adversarial () =
  let tp = Obs.Txprof.create ~k:4 (Obs.Metrics.create ()) in
  let totals = [ 5; 100; 3; 98; 99; 1; 97; 102; 2; 98 ] in
  List.iteri
    (fun i total ->
      let phases = Array.make Obs.Txprof.nphases 0 in
      phases.(Obs.Txprof.ph_exec) <- total;
      Obs.Txprof.record tp ~txid:(i + 1) ~tid:0 ~start_ts:0 ~total_ns:total
        ~retries:0 ~bytes_logged:0 ~writes:0 ~phases)
    totals;
  Alcotest.(check int) "count sees everything" (List.length totals)
    (Obs.Txprof.count tp);
  Alcotest.(check int) "capture is bounded" 4 (Obs.Txprof.captured tp);
  let got = List.map (fun e -> e.Obs.Txprof.total_ns) (Obs.Txprof.top tp) in
  Alcotest.(check (list int)) "four largest, slowest first"
    [ 102; 100; 99; 98 ] got

(* ------------------------------------------------------------------ *)
(* Integration: redo logging commits with exactly one fence *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemobs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let test_one_fence_per_commit () =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:3 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let config =
        {
          Mtm.Txn.default_config with
          nthreads = 1;
          log_cap_words = 4096;
          truncation = Mtm.Txn.Async;
        }
      in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let v = Region.Pmem.default_view pmem in
      let slot = Region.Pstatic.get v "test.data" 8 in
      let base = Region.Pmem.pmap v 4096 in
      Region.Pmem.wtstore v slot (Int64.of_int base);
      Region.Pmem.fence v;
      (* fault the data page in now, or commit write-back would take a
         demand fault whose durable mapping-table update also fences *)
      ignore (Region.Pmem.load v base);
      let th = Mtm.Txn.thread pool 0 v.env in
      (* all the setup fences and faults are behind us: watch one commit *)
      let obs = Mtm.Txn.obs pool in
      Obs.enable_trace obs;
      Mtm.Txn.run th (fun tx ->
          Mtm.Txn.store tx base 1L;
          Mtm.Txn.store tx (base + 8) 2L;
          Mtm.Txn.store tx (base + 16) 3L);
      let events = Obs.Flight.traced obs.Obs.flight in
      let count k =
        List.length
          (List.filter
             (fun (e : Obs.Flight.entry) -> e.code = Obs.Trace.kind_code k)
             events)
      in
      (* the durability point of lazy redo logging is the single tornbit
         flush+fence after the log append (paper section 5); with async
         truncation nothing else orders *)
      Alcotest.(check int) "exactly one fence" 1 (count Obs.Trace.Fence);
      Alcotest.(check int) "one commit" 1 (count Obs.Trace.Txn_commit);
      Alcotest.(check int) "one log append" 1 (count Obs.Trace.Log_append);
      let s = Mtm.Txn.stats pool in
      Alcotest.(check int) "committed" 1 s.Mtm.Txn.commits)

(* Shared pool setup for the profiling tests: one simulated machine,
   one instance, a mapped data page, [nthreads] transaction threads. *)
let with_pool ?(nthreads = 1) dir f =
  let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
  let backing = Region.Backing_store.open_dir dir in
  let pmem = Region.Pmem.open_instance m backing in
  let config =
    {
      Mtm.Txn.default_config with
      nthreads;
      log_cap_words = 4096;
      truncation = Mtm.Txn.Async;
    }
  in
  let pool = Mtm.Txn.create_pool ~config pmem None in
  let v = Region.Pmem.default_view pmem in
  let base = Region.Pmem.pmap v 4096 in
  ignore (Region.Pmem.load v base);
  f pool v base

(* The mark-chain invariant: the instrumented commit path advances one
   thread-local mark through the phase boundaries, attributing every
   interval to exactly one phase — so each ledger entry's phase sum
   must equal its total duration exactly, not just account for 95% of
   it. *)
let test_phase_sum_invariant () =
  with_tmpdir (fun dir ->
      with_pool dir (fun pool v base ->
          let tp =
            Obs.Txprof.create (Mtm.Txn.obs pool).Obs.metrics
          in
          Mtm.Txn.set_txprof pool (Some tp);
          let th = Mtm.Txn.thread pool 0 v.env in
          let n = 20 in
          for i = 1 to n do
            Mtm.Txn.run th (fun tx ->
                (* vary the write-set size so totals differ *)
                for w = 0 to i mod 5 do
                  Mtm.Txn.store tx (base + (8 * w)) (Int64.of_int i)
                done)
          done;
          Alcotest.(check int) "every commit recorded" n (Obs.Txprof.count tp);
          Alcotest.(check int) "tail captured" (min n (Obs.Txprof.k tp))
            (Obs.Txprof.captured tp);
          List.iter
            (fun e ->
              if e.Obs.Txprof.total_ns <= 0 then
                Alcotest.failf "txid %d: empty duration" e.Obs.Txprof.txid;
              if Obs.Txprof.phase_sum e <> e.Obs.Txprof.total_ns then
                Alcotest.failf
                  "txid %d: phase sum %d <> total %d (unattributed time)"
                  e.Obs.Txprof.txid (Obs.Txprof.phase_sum e)
                  e.Obs.Txprof.total_ns;
              if e.Obs.Txprof.txid <= 0 || e.Obs.Txprof.txid > n then
                Alcotest.failf "txid %d out of range" e.Obs.Txprof.txid)
            (Obs.Txprof.top tp);
          (* the phase histograms fed one sample per commit *)
          let total =
            Obs.Metrics.histogram (Mtm.Txn.obs pool).Obs.metrics
              "mtm.txn.total_ns"
          in
          Alcotest.(check int) "total histogram count" n
            (Obs.Metrics.hcount total);
          (* the always-on flight ring saw the run without tracing *)
          let dump = Obs.flight_dump (Mtm.Txn.obs pool) in
          contains ~what:"flight dump" "Txn_commit" dump;
          contains ~what:"flight dump" "Flow_start" dump))

(* Regression: log-full stall time is charged to exactly one phase of
   the transaction that suffered it, and a stall served while no
   profiler was installed must not leak into the first instrumented
   commit.  The leak shows up as a phase sum exceeding the entry's
   total. *)
let test_stall_not_leaked_across_install () =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let config =
        {
          Mtm.Txn.default_config with
          nthreads = 1;
          truncation = Mtm.Txn.Async;
          log_cap_words = 64;
        }
      in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let v = Region.Pmem.default_view pmem in
      let base = Region.Pmem.pmap v 65536 in
      ignore (Region.Pmem.load v base);
      let th = Mtm.Txn.thread pool 0 v.env in
      (* fill the 64-word log until the producer stalls and
         self-drains, repeatedly — all before any profiler exists *)
      for k = 0 to 19 do
        Mtm.Txn.run th (fun tx ->
            for j = 0 to 3 do
              Mtm.Txn.store tx (base + (k * 256) + (j * 8)) 1L
            done)
      done;
      let tp = Obs.Txprof.create (Mtm.Txn.obs pool).Obs.metrics in
      Mtm.Txn.set_txprof pool (Some tp);
      Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx base 9L);
      Alcotest.(check int) "one instrumented commit" 1 (Obs.Txprof.count tp);
      List.iter
        (fun e ->
          if Obs.Txprof.phase_sum e <> e.Obs.Txprof.total_ns then
            Alcotest.failf
              "pre-install stall leaked into the ledger: phase sum %d <> \
               total %d (trunc_wait %d)"
              (Obs.Txprof.phase_sum e) e.Obs.Txprof.total_ns
              e.Obs.Txprof.phases.(Obs.Txprof.ph_trunc_wait))
        (Obs.Txprof.top tp))

(* The pipelined commit's ninth phase: time blocked in the in-flight
   window (backpressure waiting for — or inline running — the deferred
   write-back drain) is charged to [ph_drain_wait], and the mark chain
   still partitions the commit exactly: phase sum == total for every
   entry.  A 1-deep window with no drainer daemon forces every commit
   after the first through the backpressure path. *)
let test_drain_wait_phase () =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let config =
        {
          Mtm.Txn.default_config with
          nthreads = 1;
          log_cap_words = 4096;
          pipeline = true;
          pipe_window = 1;
        }
      in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let v = Region.Pmem.default_view pmem in
      let base = Region.Pmem.pmap v 4096 in
      ignore (Region.Pmem.load v base);
      let tp = Obs.Txprof.create (Mtm.Txn.obs pool).Obs.metrics in
      Mtm.Txn.set_txprof pool (Some tp);
      let th = Mtm.Txn.thread pool 0 v.env in
      let n = 10 in
      for i = 1 to n do
        Mtm.Txn.run th (fun tx ->
            for w = 0 to 3 do
              Mtm.Txn.store tx (base + (8 * w)) (Int64.of_int i)
            done)
      done;
      Alcotest.(check int) "every commit recorded" n (Obs.Txprof.count tp);
      let drain_wait = ref 0 in
      List.iter
        (fun e ->
          drain_wait := !drain_wait + e.Obs.Txprof.phases.(Obs.Txprof.ph_drain_wait);
          if Obs.Txprof.phase_sum e <> e.Obs.Txprof.total_ns then
            Alcotest.failf
              "txid %d: phase sum %d <> total %d (drain_wait %d \
               unattributed)"
              e.Obs.Txprof.txid (Obs.Txprof.phase_sum e)
              e.Obs.Txprof.total_ns
              e.Obs.Txprof.phases.(Obs.Txprof.ph_drain_wait))
        (Obs.Txprof.top tp);
      Alcotest.(check bool) "backpressure time lands in drain_wait" true
        (!drain_wait > 0))

(* The compound case the two previous tests take separately (ISSUE 9,
   satellite 2): one commit whose append stalls on a full log
   ([ph_trunc_wait], split out of the log phase) AND whose push then
   blocks in the in-flight window ([ph_drain_wait]) — the regime a serving
   workload hits under a real drainer daemon.  Construction: a 1-deep window
   over a log that fits exactly one wide record, with a daemon that gets the
   CPU once per period (as in the serving benchmark's overload arm), so
   every backpressure wait is a real wait for the daemon's next turn.
   Commit 1 pushes and backpressures; the daemon's turn comes, it pops the
   queue and starts flushing its 16 data lines, so commit 2's append finds
   the log full with the head not yet advanced (empty queue, [draining] set)
   — the stall path — and its own push then waits a period for the daemon
   again.  Both phases land in one ledger entry, and the mark chain must
   still partition the commit exactly: any double-count (the stall charged
   to trunc_wait but not subtracted from the log phase, or drain-wait
   overlapping it) breaks phase_sum == total. *)
let test_stall_and_drain_wait_same_commit () =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let config =
        {
          Mtm.Txn.default_config with
          nthreads = 1;
          (* one 16-write record (36 stored words) fits; nothing more *)
          log_cap_words = 40;
          pipeline = true;
          pipe_window = 1;
        }
      in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let v = Region.Pmem.default_view pmem in
      let base = Region.Pmem.pmap v 4096 in
      ignore (Region.Pmem.load v base);
      let tp = Obs.Txprof.create (Mtm.Txn.obs pool).Obs.metrics in
      Mtm.Txn.set_txprof pool (Some tp);
      let sim = Sim.create () in
      let drainers =
        Mtm.Txn.Drainers.start ~period_ns:1_000 ~per:1 sim pool
      in
      Sim.spawn sim (fun () ->
          let th =
            Mtm.Txn.thread pool 0
              (Scm.Env.view m
                 ~delay:(fun ns -> Sim.delay sim ns)
                 ~now:(fun () -> Sim.now sim))
          in
          let wide i =
            Mtm.Txn.run th (fun tx ->
                (* 16 distinct cache lines: the daemon's write-back
                   sweep is long enough to still be in flight when the
                   next append runs *)
                for w = 0 to 15 do
                  Mtm.Txn.store tx (base + (64 * w)) (Int64.of_int i)
                done)
          in
          wide 1;
          wide 2;
          Mtm.Txn.Drainers.worker_done drainers);
      Sim.run sim;
      Alcotest.(check int) "commits recorded" 2 (Obs.Txprof.count tp);
      Alcotest.(check int) "the second commit stalled" 1
        (Mtm.Txn.stats pool).Mtm.Txn.log_full_stalls;
      let compound = ref false in
      List.iter
        (fun e ->
          let stall = e.Obs.Txprof.phases.(Obs.Txprof.ph_trunc_wait) in
          let dwait = e.Obs.Txprof.phases.(Obs.Txprof.ph_drain_wait) in
          if stall > 0 && dwait > 0 then compound := true;
          if Obs.Txprof.phase_sum e <> e.Obs.Txprof.total_ns then
            Alcotest.failf
              "txid %d: phase sum %d <> total %d (trunc_wait %d, \
               drain_wait %d: stall/drain-wait double-count)"
              e.Obs.Txprof.txid (Obs.Txprof.phase_sum e)
              e.Obs.Txprof.total_ns stall dwait)
        (Obs.Txprof.top tp);
      Alcotest.(check bool) "one commit carries both phases" true !compound)

(* The breakdown [bench kvstore] prints: the hsums of the ledger's nine
   phase histograms add up exactly to the hsum of its total histogram,
   so the printed shares sum to 100%.  [workload] runs on a fresh pool
   of [config] with the ledger installed and returns a description of
   the regime it reached. *)
let check_phase_hsums config workload =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let metrics = (Mtm.Txn.obs pool).Obs.metrics in
      Mtm.Txn.set_txprof pool (Some (Obs.Txprof.create metrics));
      let v = Region.Pmem.default_view pmem in
      let base = Region.Pmem.pmap v 65536 in
      ignore (Region.Pmem.load v base);
      workload m pool v base;
      let hsum name = Obs.Metrics.hsum (Obs.Metrics.histogram metrics name) in
      let phases =
        List.init Obs.Txprof.nphases (fun i ->
            hsum
              (Printf.sprintf "mtm.txn.phase.%s_ns" (Obs.Txprof.phase_name i)))
      in
      let total = hsum "mtm.txn.total_ns" in
      Alcotest.(check bool) "transactions recorded" true (total > 0);
      Alcotest.(check int) "phase hsums add up to the total hsum" total
        (List.fold_left ( + ) 0 phases))

let test_phase_hsums_async_stalls () =
  check_phase_hsums
    {
      Mtm.Txn.default_config with
      nthreads = 1;
      truncation = Mtm.Txn.Async;
      log_cap_words = 64;
    }
    (fun _ pool v base ->
      let th = Mtm.Txn.thread pool 0 v.env in
      for k = 0 to 19 do
        Mtm.Txn.run th (fun tx ->
            for j = 0 to 3 do
              Mtm.Txn.store tx (base + (k * 256) + (j * 8)) 1L
            done)
      done;
      Alcotest.(check bool) "the log filled" true
        ((Mtm.Txn.stats pool).Mtm.Txn.log_full_stalls > 0))

let test_phase_hsums_undo () =
  check_phase_hsums
    {
      Mtm.Txn.default_config with
      nthreads = 1;
      version_mgmt = Mtm.Txn.Eager_undo;
      log_cap_words = 4096;
    }
    (fun _ pool v base ->
      let th = Mtm.Txn.thread pool 0 v.env in
      for i = 1 to 20 do
        Mtm.Txn.run th (fun tx ->
            for w = 0 to i mod 5 do
              Mtm.Txn.store tx (base + (64 * w)) (Int64.of_int i)
            done)
      done)

let test_phase_hsums_pipelined () =
  check_phase_hsums
    { Mtm.Txn.pipelined_config with nthreads = 4; log_cap_words = 4096 }
    (fun m pool _ base ->
      let sim = Sim.create () in
      let drainers = Mtm.Txn.Drainers.start ~per:2 sim pool in
      for i = 0 to 3 do
        Sim.spawn sim (fun () ->
            let th =
              Mtm.Txn.thread pool i
                (Scm.Env.view m
                   ~delay:(fun ns -> Sim.delay sim ns)
                   ~now:(fun () -> Sim.now sim))
            in
            for k = 1 to 40 do
              (* a shared word and a private one: conflicts and retries *)
              Mtm.Txn.run th (fun tx ->
                  let x = Mtm.Txn.load tx base in
                  Mtm.Txn.store tx base (Int64.add x 1L);
                  Mtm.Txn.store tx (base + 4096 + (64 * ((8 * i) + (k mod 8))))
                    (Int64.of_int k))
            done;
            Mtm.Txn.Drainers.worker_done drainers)
      done;
      Sim.run sim;
      Alcotest.(check bool) "transactions retried" true
        ((Mtm.Txn.stats pool).Mtm.Txn.retries > 0))

(* The disabled path must stay allocation-free: with no trace and no
   ledger installed every hook is one branch, and a commit's footprint
   stays within the perf baseline's minor-words budget. *)
let test_disabled_path_allocation () =
  with_tmpdir (fun dir ->
      with_pool dir (fun pool v base ->
          let th = Mtm.Txn.thread pool 0 v.env in
          let commit i =
            Mtm.Txn.run th (fun tx ->
                Mtm.Txn.store tx base (Int64.of_int i);
                Mtm.Txn.store tx (base + 8) (Int64.of_int (i * 3)))
          in
          (* warm up: first commits pay one-time cache/log growth *)
          for i = 1 to 100 do
            commit i
          done;
          let n = 500 in
          let before = Gc.minor_words () in
          for i = 1 to n do
            commit i
          done;
          let per_commit = (Gc.minor_words () -. before) /. float_of_int n in
          if per_commit > 512.0 then
            Alcotest.failf "disabled path allocates %.1f minor words/commit"
              per_commit))

(* Recording once into the preallocated ring makes tracing free in
   allocation: commit_bench's "commit" shape (4 reads, 8 writes) costs
   no more minor words per commit with the trace on than with it off. *)
let commit_minor_words ~tracing =
  with_tmpdir (fun dir ->
      let obs = Obs.create ~tracing () in
      let inst = Mnemosyne.open_instance ~obs ~dir () in
      let nslots = 512 in
      let slot = Mnemosyne.pstatic inst "test.commit" 8 in
      let data =
        Mnemosyne.atomically inst (fun tx ->
            let a = Mtm.Txn.alloc tx (nslots * 8) ~slot in
            for i = 0 to nslots - 1 do
              Mtm.Txn.store tx (a + (8 * i)) 0L
            done;
            a)
      in
      let body i =
        Mnemosyne.atomically inst (fun tx ->
            for j = 0 to 3 do
              ignore
                (Mtm.Txn.load tx
                   (data + (8 * (((i * 7) + (j * 13)) mod nslots))))
            done;
            for j = 0 to 7 do
              Mtm.Txn.store tx
                (data + (8 * (((i * 11) + (j * 17)) mod nslots)))
                (Int64.of_int ((i * 31) + j))
            done)
      in
      for i = 1 to 500 do
        body i
      done;
      let n = 2000 in
      let before = Gc.minor_words () in
      for i = 1 to n do
        body i
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      Alcotest.(check bool) "traced as asked" tracing (Obs.tracing obs);
      Mnemosyne.close inst;
      words)

let test_traced_commit_allocation () =
  let untraced = commit_minor_words ~tracing:false in
  let traced = commit_minor_words ~tracing:true in
  if traced > untraced then
    Alcotest.failf "traced commit allocates %.1f minor words, untraced %.1f"
      traced untraced

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram vs oracle" `Quick
            test_histogram_oracle;
          Alcotest.test_case "small values exact" `Quick
            test_histogram_small_exact;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "unrecorded histogram" `Quick
            test_unrecorded_histogram;
          Alcotest.test_case "snapshot and json export" `Quick
            test_snapshot_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "flight dump ends the chrome export" `Quick
            test_flight_dump_ends_trace;
          Alcotest.test_case "crash marker has one name" `Quick
            test_crash_marker_name;
          Alcotest.test_case "chrome json round-trip" `Quick
            test_chrome_roundtrip;
          Alcotest.test_case "flow events carry txid" `Quick
            test_flow_roundtrip;
        ] );
      ( "txprof",
        [
          Alcotest.test_case "top-k adversarial order" `Quick
            test_topk_adversarial;
          Alcotest.test_case "phase sum equals duration" `Quick
            test_phase_sum_invariant;
          Alcotest.test_case "stall not leaked across install" `Quick
            test_stall_not_leaked_across_install;
          Alcotest.test_case "stall and drain wait in one commit" `Quick
            test_stall_and_drain_wait_same_commit;
          Alcotest.test_case "drain wait phase partitions exactly" `Quick
            test_drain_wait_phase;
          Alcotest.test_case "phase hsums sum to total: async stalls" `Quick
            test_phase_hsums_async_stalls;
          Alcotest.test_case "phase hsums sum to total: eager undo" `Quick
            test_phase_hsums_undo;
          Alcotest.test_case "phase hsums sum to total: pipelined" `Quick
            test_phase_hsums_pipelined;
        ] );
      ( "integration",
        [
          Alcotest.test_case "one fence per redo commit" `Quick
            test_one_fence_per_commit;
          Alcotest.test_case "disabled path stays allocation-free" `Quick
            test_disabled_path_allocation;
          Alcotest.test_case "traced commit allocates no more than untraced"
            `Quick test_traced_commit_allocation;
        ] );
    ]
