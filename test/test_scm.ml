(* Unit and property tests for the SCM substrate: device, cache,
   write-combining buffers, primitives and crash injection. *)

open Scm

let machine ?latency ?cache_capacity_lines ?(nframes = 64) () =
  Env.make_machine ?latency ?cache_capacity_lines ~seed:7 ~nframes ()

(* ------------------------------------------------------------------ *)
(* Device *)

let test_device_roundtrip () =
  let dev = Scm_device.create ~nframes:4 () in
  Scm_device.store64 dev 0 42L;
  Scm_device.store64 dev 8 (-1L);
  Scm_device.store64 dev (4 * 4096 - 8) 7L;
  Alcotest.(check int64) "word 0" 42L (Scm_device.load64 dev 0);
  Alcotest.(check int64) "word 1" (-1L) (Scm_device.load64 dev 8);
  Alcotest.(check int64) "last" 7L (Scm_device.load64 dev (4 * 4096 - 8))

let test_device_bounds () =
  let dev = Scm_device.create ~nframes:1 () in
  Alcotest.check_raises "oob" (Invalid_argument "Scm_device: address 0x1000+8 out of range")
    (fun () -> ignore (Scm_device.load64 dev 4096));
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Scm_device.store64: unaligned 0x4") (fun () ->
      Scm_device.store64 dev 4 0L)

let test_device_wear_counters () =
  let dev = Scm_device.create ~nframes:2 () in
  Scm_device.store64 dev 0 1L;
  Scm_device.store64 dev 8 1L;
  Scm_device.store64 dev 4096 1L;
  Alcotest.(check int) "frame 0 writes" 2 (Scm_device.write_count dev 0);
  Alcotest.(check int) "frame 1 writes" 1 (Scm_device.write_count dev 1);
  Alcotest.(check int) "total" 3 (Scm_device.total_writes dev)

let test_device_image_roundtrip () =
  let dev = Scm_device.create ~nframes:3 () in
  for i = 0 to 100 do
    Scm_device.store64 dev (i * 8) (Int64.of_int (i * i))
  done;
  let path = Filename.temp_file "scm" ".img" in
  Scm_device.save_image dev path;
  let dev' = Scm_device.load_image path in
  Sys.remove path;
  Alcotest.(check int) "nframes" 3 (Scm_device.nframes dev');
  for i = 0 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "word %d" i)
      (Int64.of_int (i * i))
      (Scm_device.load64 dev' (i * 8))
  done

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_write_back_on_flush () =
  let m = machine () in
  Cache.write_word m.cache 0 99L;
  Alcotest.(check int64) "device still zero" 0L (Scm_device.load64 m.dev 0);
  Alcotest.(check int64) "cache sees it" 99L (Cache.read_word m.cache 0);
  Alcotest.(check bool) "dirty flush" true (Cache.flush_line m.cache 0);
  Alcotest.(check int64) "device updated" 99L (Scm_device.load64 m.dev 0);
  Alcotest.(check bool) "clean flush" false (Cache.flush_line m.cache 0)

let test_cache_eviction_writes_back () =
  (* A 4-line cache forced over capacity must evict (persisting dirty
     victims) while keeping every read coherent. *)
  let m = machine ~cache_capacity_lines:4 () in
  for i = 0 to 63 do
    Cache.write_word m.cache (i * 64) (Int64.of_int i)
  done;
  Alcotest.(check bool) "evictions happened" true (Cache.evictions m.cache > 0);
  for i = 0 to 63 do
    Alcotest.(check int64)
      (Printf.sprintf "line %d" i)
      (Int64.of_int i)
      (Cache.read_word m.cache (i * 64))
  done

let test_cache_byte_range_spanning_lines () =
  let m = machine () in
  let data = Bytes.init 200 (fun i -> Char.chr (i mod 256)) in
  Cache.write_from m.cache 30 data 0 200;
  let back = Bytes.create 200 in
  Cache.read_into m.cache 30 back 0 200;
  Alcotest.(check bytes) "roundtrip across lines" data back

let test_cache_dirty_lines_listing () =
  let m = machine () in
  Cache.write_word m.cache 0 1L;
  Cache.write_word m.cache 128 1L;
  ignore (Cache.read_word m.cache 256);
  Alcotest.(check (list int)) "dirty lines" [ 0; 128 ]
    (Cache.dirty_lines m.cache)

(* ------------------------------------------------------------------ *)
(* Write-combining buffer *)

let test_wc_forwarding_and_drain () =
  let dev = Scm_device.create ~nframes:1 () in
  let wc = Wc_buffer.create dev in
  Wc_buffer.post wc 0 1L;
  Wc_buffer.post wc 0 2L;
  Wc_buffer.post wc 8 3L;
  Alcotest.(check (option int64)) "forwards newest" (Some 2L)
    (Wc_buffer.lookup wc 0);
  Alcotest.(check int) "pending" 3 (Wc_buffer.pending_words wc);
  Alcotest.(check int64) "device untouched" 0L (Scm_device.load64 dev 0);
  Wc_buffer.drain wc;
  Alcotest.(check int64) "after drain w0" 2L (Scm_device.load64 dev 0);
  Alcotest.(check int64) "after drain w1" 3L (Scm_device.load64 dev 8);
  Alcotest.(check int) "empty" 0 (Wc_buffer.pending_words wc)

let test_wc_crash_subset_is_partial () =
  (* With many pending words and a random subset applied, the device
     must end with each word either old or new — and over a seeded run,
     both outcomes must occur somewhere. *)
  let dev = Scm_device.create ~nframes:1 () in
  let wc = Wc_buffer.create dev in
  for i = 0 to 99 do
    Wc_buffer.post wc (i * 8) 0xdeadL
  done;
  let rng = Random.State.make [| 3 |] in
  let applied = Wc_buffer.crash_apply_subset wc rng in
  Alcotest.(check bool) "some applied" true (applied > 0);
  Alcotest.(check bool) "some lost" true (applied < 100);
  let seen_new = ref 0 and seen_old = ref 0 in
  for i = 0 to 99 do
    match Scm_device.load64 dev (i * 8) with
    | 0xdeadL -> incr seen_new
    | 0L -> incr seen_old
    | other -> Alcotest.failf "torn word? %Ld" other
  done;
  Alcotest.(check int) "accounting" 100 (!seen_new + !seen_old);
  Alcotest.(check int) "applied count matches" applied !seen_new

(* ------------------------------------------------------------------ *)
(* Primitives *)

let test_store_volatile_until_persist () =
  let m = machine () in
  let env = Env.standalone m in
  Primitives.store env 0 77L;
  Alcotest.(check int64) "load sees store" 77L (Primitives.load env 0);
  Alcotest.(check int64) "device does not" 0L (Scm_device.load64 m.dev 0);
  Primitives.flush env 0;
  Primitives.fence env;
  Alcotest.(check int64) "durable after flush+fence" 77L
    (Scm_device.load64 m.dev 0)

let test_wtstore_durable_after_fence () =
  let m = machine () in
  let env = Env.standalone m in
  Primitives.wtstore env 64 5L;
  Alcotest.(check int64) "forwarded to own loads" 5L (Primitives.load env 64);
  Alcotest.(check int64) "not yet durable" 0L (Scm_device.load64 m.dev 64);
  Primitives.fence env;
  Alcotest.(check int64) "durable" 5L (Scm_device.load64 m.dev 64)

let test_wtstore_after_cached_store () =
  (* A dirty cached line followed by a streaming store to the same line
     must not lose either write. *)
  let m = machine () in
  let env = Env.standalone m in
  Primitives.store env 0 10L;
  Primitives.wtstore env 8 20L;
  Primitives.fence env;
  Alcotest.(check int64) "cached word persisted by movnt path" 10L
    (Scm_device.load64 m.dev 0);
  Alcotest.(check int64) "streamed word" 20L (Scm_device.load64 m.dev 8);
  Alcotest.(check int64) "load w0" 10L (Primitives.load env 0);
  Alcotest.(check int64) "load w1" 20L (Primitives.load env 8)

let test_latency_charges () =
  let m = machine () in
  let env = Env.standalone m in
  let t0 = Env.elapsed_ns env in
  Primitives.store env 0 1L;
  let t1 = Env.elapsed_ns env in
  Alcotest.(check bool) "store is cheap" true (t1 - t0 < 10);
  Primitives.flush env 0;
  let t2 = Env.elapsed_ns env in
  Alcotest.(check bool) "dirty flush costs a PCM write" true
    (t2 - t1 >= Latency_model.default.pcm_write_ns);
  Primitives.wtstore env 64 1L;
  Primitives.fence env;
  let t3 = Env.elapsed_ns env in
  Alcotest.(check bool) "fence with pending writes costs a PCM write" true
    (t3 - t2 >= Latency_model.default.pcm_write_ns)

let test_fence_bandwidth_model () =
  let lat = Latency_model.default in
  Alcotest.(check int) "small drain floors at latency" lat.pcm_write_ns
    (Latency_model.streaming_write_ns lat 64);
  (* 1 MiB at 4096 bytes/us = 256 us *)
  Alcotest.(check int) "large drain is bandwidth-bound" 256_000
    (Latency_model.streaming_write_ns lat (1024 * 1024))

let test_persist_range () =
  let m = machine () in
  let env = Env.standalone m in
  let data = Bytes.make 300 'x' in
  Primitives.store_bytes env 40 data 0 300;
  Primitives.persist env 40 300;
  let back = Bytes.create 300 in
  Scm_device.read_into m.dev 40 back 0 300;
  Alcotest.(check bytes) "range durable" data back

(* ------------------------------------------------------------------ *)
(* Crash injection *)

let test_crash_drops_unflushed () =
  let m = machine () in
  let env = Env.standalone m in
  Primitives.store env 0 123L;
  Crash.inject ~policy:{ cache = Crash.Drop_dirty; wc = Crash.Wc_drop } m;
  Alcotest.(check int64) "cached store lost" 0L (Scm_device.load64 m.dev 0);
  ignore env

let test_crash_preserves_persisted () =
  let m = machine () in
  let env = Env.standalone m in
  Primitives.store env 0 123L;
  Primitives.flush env 0;
  Primitives.fence env;
  Primitives.store env 64 456L;  (* never persisted *)
  Crash.inject ~policy:{ cache = Crash.Drop_dirty; wc = Crash.Wc_drop } m;
  Alcotest.(check int64) "persisted survives" 123L (Scm_device.load64 m.dev 0);
  Alcotest.(check int64) "unpersisted lost" 0L (Scm_device.load64 m.dev 64)

let test_crash_random_eviction_policy () =
  let m = machine () in
  let env = Env.standalone m in
  for i = 0 to 199 do
    Primitives.store env (i * 64) 1L
  done;
  Crash.inject
    ~policy:{ cache = Crash.Evict_random 0.5; wc = Crash.Wc_drop }
    m;
  let survived = ref 0 in
  for i = 0 to 199 do
    if Scm_device.load64 m.dev (i * 64) = 1L then incr survived
  done;
  Alcotest.(check bool) "some lines evicted pre-crash" true (!survived > 0);
  Alcotest.(check bool) "some lines lost" true (!survived < 200)

(* ------------------------------------------------------------------ *)
(* Crash points *)

(* A small fixed op sequence: streaming stores, a fence, a cached store
   pushed out through a write-back. *)
let crashpoint_workload env =
  Primitives.wtstore env 0 1L;
  Primitives.wtstore env 8 2L;
  Primitives.fence env;
  Primitives.store env 64 3L;
  Primitives.persist env 64 8

let test_crashpoint_counts_deterministically () =
  let count_once () =
    let cp = Crashpoint.create () in
    let m = Env.make_machine ~seed:7 ~nframes:64 ~crash_point:cp () in
    crashpoint_workload (Env.standalone m);
    Crashpoint.count cp
  in
  let n = count_once () in
  Alcotest.(check bool) "several ops ticked" true (n >= 4);
  Alcotest.(check int) "identical re-run, identical count" n (count_once ())

let test_crashpoint_fires_at_every_index () =
  let cp0 = Crashpoint.create () in
  let m0 = Env.make_machine ~seed:7 ~nframes:64 ~crash_point:cp0 () in
  crashpoint_workload (Env.standalone m0);
  let n = Crashpoint.count cp0 in
  for k = 1 to n do
    let cp = Crashpoint.create () in
    Crashpoint.arm cp ~at:k;
    let m = Env.make_machine ~seed:7 ~nframes:64 ~crash_point:cp () in
    let env = Env.standalone m in
    (match crashpoint_workload env with
    | () -> Alcotest.failf "armed at op %d but the workload completed" k
    | exception Crashpoint.Simulated_crash { op; _ } ->
        Alcotest.(check int) "fires exactly at its index" k op;
        Alcotest.(check bool) "latched" true (Crashpoint.crashed cp));
    (* the machine is dead: every further persistence op must re-raise,
       so no cleanup path can leak writes past the crash *)
    (match Primitives.wtstore env 16 9L with
    | () -> Alcotest.fail "op after the crash did not re-raise"
    | exception Crashpoint.Simulated_crash _ -> ());
    (* crash injection itself must go through (it disarms first) *)
    Crash.inject m
  done

let test_crashpoint_arm_validation () =
  let cp = Crashpoint.create () in
  Alcotest.check_raises "index 0 rejected"
    (Invalid_argument "Crashpoint.arm: op indices start at 1") (fun () ->
      Crashpoint.arm cp ~at:0);
  Crashpoint.arm cp ~at:3;
  Alcotest.(check (option int)) "armed" (Some 3) (Crashpoint.target cp);
  Crashpoint.disarm cp;
  Alcotest.(check (option int)) "disarmed" None (Crashpoint.target cp);
  (* disarmed ticking never raises *)
  let m = Env.make_machine ~seed:7 ~nframes:64 ~crash_point:cp () in
  crashpoint_workload (Env.standalone m);
  Alcotest.(check bool) "not crashed" false (Crashpoint.crashed cp)

(* ------------------------------------------------------------------ *)
(* Eviction-sequence determinism *)

(* The array-backed cache rewrite pinned the eviction semantics of the
   original Hashtbl implementation: the victim is drawn uniformly from
   a dense insertion-ordered array of resident line addresses
   (append on fill, swap-remove on removal), and the rng is consumed
   only for that draw.  Mirror that reference model here, drive both
   through an identical op mix, and require the observed victim
   sequence (Cache_evict trace instants) to match the model's op for
   op — the property that keeps crash-point indices stable across
   cache reimplementations. *)
let test_cache_eviction_sequence_matches_model () =
  let cap = 8 in
  let obs = Obs.create ~tracing:true () in
  let m =
    Env.make_machine ~seed:7 ~obs ~cache_capacity_lines:cap ~nframes:4 ()
  in
  (* Reference model state: resident bases + an identically seeded rng
     (Cache.create seeds its rng from the machine seed). *)
  let rng = Random.State.make [| 7 |] in
  let members = Array.make cap (-1) in
  let nmembers = ref 0 in
  let expected = ref [] in
  let m_find base =
    let r = ref (-1) in
    for i = 0 to !nmembers - 1 do
      if members.(i) = base then r := i
    done;
    !r
  in
  let m_remove_at i =
    members.(i) <- members.(!nmembers - 1);
    decr nmembers
  in
  let m_touch base =
    if m_find base < 0 then begin
      if !nmembers >= cap then begin
        let i = Random.State.int rng !nmembers in
        expected := members.(i) :: !expected;
        m_remove_at i
      end;
      members.(!nmembers) <- base;
      incr nmembers
    end
  in
  let m_drop base =
    let i = m_find base in
    if i >= 0 then m_remove_at i
  in
  let x = ref 123456789 in
  for _ = 1 to 4000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let addr = !x mod 128 * 64 in
    match !x lsr 8 land 3 with
    | 0 ->
        ignore (Cache.read_word m.cache addr);
        m_touch addr
    | 1 ->
        Cache.write_word m.cache addr (Int64.of_int !x);
        m_touch addr
    | 2 ->
        ignore (Cache.flush_line m.cache addr);
        m_drop addr
    | _ ->
        Cache.wt_invalidate m.cache addr;
        m_drop addr
  done;
  let actual =
    List.filter_map
      (fun (e : Obs.Flight.entry) ->
        if e.code = Obs.Trace.(kind_code Cache_evict) then Some e.arg else None)
      (Obs.Flight.traced obs.Obs.flight)
  in
  Alcotest.(check bool)
    "workload actually evicts" true
    (List.length actual > 100);
  Alcotest.(check (list int))
    "victim sequence matches the reference model" (List.rev !expected) actual

(* ------------------------------------------------------------------ *)
(* Device undo journal *)

let test_device_journal_restores_snapshot () =
  let dev = Scm_device.create ~nframes:4 () in
  for i = 0 to 99 do
    Scm_device.store64 dev (i * 8) (Int64.of_int (i * 3))
  done;
  Scm_device.journal_start dev;
  let mark = Scm_device.journal_mark dev in
  let snap = Scm_device.copy dev in
  (* Mutate through every journaled path: checked and unchecked word
     stores plus a multi-byte line write. *)
  for i = 0 to 49 do
    Scm_device.store64 dev (i * 16) (-1L)
  done;
  Scm_device.store64_unchecked dev 4096 7L;
  let line = Bytes.make 64 '\xab' in
  Scm_device.write_from dev 8192 line 0 64;
  Alcotest.(check bool) "state diverged" true
    (Scm_device.load64 dev 0 <> Scm_device.load64 snap 0);
  Scm_device.journal_undo_to dev mark;
  for i = 0 to (4 * 4096 / 8) - 1 do
    if Scm_device.load64 dev (i * 8) <> Scm_device.load64 snap (i * 8) then
      Alcotest.failf "word %d differs after undo" i
  done;
  for f = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "frame %d wear restored" f)
      (Scm_device.write_count snap f)
      (Scm_device.write_count dev f)
  done;
  Alcotest.(check int) "total writes restored"
    (Scm_device.total_writes snap)
    (Scm_device.total_writes dev)

let test_device_journal_nested_marks () =
  let dev = Scm_device.create ~nframes:1 () in
  Scm_device.journal_start dev;
  let m0 = Scm_device.journal_mark dev in
  Scm_device.store64 dev 0 1L;
  let m1 = Scm_device.journal_mark dev in
  Scm_device.store64 dev 0 2L;
  Scm_device.store64 dev 8 3L;
  Scm_device.journal_undo_to dev m1;
  Alcotest.(check int64) "inner undo keeps outer write" 1L
    (Scm_device.load64 dev 0);
  Alcotest.(check int64) "inner undo reverts" 0L (Scm_device.load64 dev 8);
  Alcotest.(check int) "wear rewound to mark" 1 (Scm_device.total_writes dev);
  (* the journal can keep recording after an undo *)
  Scm_device.store64 dev 16 9L;
  Scm_device.journal_undo_to dev m0;
  Alcotest.(check int64) "outer undo reverts everything" 0L
    (Scm_device.load64 dev 0);
  Alcotest.(check int64) "outer undo reverts the re-write" 0L
    (Scm_device.load64 dev 16);
  Alcotest.(check int) "wear fully rewound" 0 (Scm_device.total_writes dev);
  Scm_device.journal_stop dev

(* ------------------------------------------------------------------ *)
(* Word helpers *)

let test_word_bits () =
  Alcotest.(check bool) "bit set" true (Word.bit 0x8000000000000000L 63);
  Alcotest.(check bool) "bit clear" false (Word.bit 0x7fffffffffffffffL 63);
  Alcotest.(check int64) "set bit 63" Int64.min_int (Word.set_bit 0L 63 true);
  Alcotest.(check int64) "clear bit 0" 2L (Word.set_bit 3L 0 false)

let test_word_string_chunks () =
  let s = "hello, world" in
  let w0 = Word.of_string_chunk s 0 in
  let buf = Bytes.create 8 in
  Word.blit_to_bytes w0 buf 0 8;
  Alcotest.(check string) "first 8 bytes" "hello, w"
    (Bytes.to_string buf)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_cache_coherence =
  (* Arbitrary interleavings of stores, loads, flushes and evictions
     must keep loads returning the last store to each word. *)
  QCheck.Test.make ~name:"cache coherence under random ops" ~count:100
    QCheck.(list (pair (int_bound 63) (int_bound 1000)))
    (fun ops ->
      let m = machine ~cache_capacity_lines:8 ~nframes:1 () in
      let env = Env.standalone m in
      let model = Array.make 64 0L in
      List.iter
        (fun (slot, v) ->
          let addr = slot * 8 in
          if v mod 5 = 0 then Primitives.flush env addr
          else begin
            let value = Int64.of_int v in
            if v mod 3 = 0 then begin
              Primitives.wtstore env addr value;
              if v mod 2 = 0 then Primitives.fence env
            end
            else Primitives.store env addr value;
            model.(slot) <- value
          end)
        ops;
      Array.for_all Fun.id
        (Array.mapi
           (fun slot expected -> Primitives.load env (slot * 8) = expected)
           model))

let prop_crash_word_atomicity =
  (* After any crash, every word equals either its old or its new
     value: 64-bit atomicity holds under all policies. *)
  QCheck.Test.make ~name:"crash preserves word atomicity" ~count:100
    QCheck.(pair (list (pair (int_bound 63) small_int)) int)
    (fun (ops, seed) ->
      let m =
        Env.make_machine ~seed:(seed land 0xffff) ~nframes:1 ()
      in
      let env = Env.standalone m in
      let possible = Array.make 64 [ 0L ] in
      List.iter
        (fun (slot, v) ->
          let addr = slot * 8 in
          let value = Int64.of_int (v + 1) in
          if v mod 2 = 0 then Primitives.store env addr value
          else Primitives.wtstore env addr value;
          possible.(slot) <- value :: possible.(slot))
        ops;
      Crash.inject m;
      Array.for_all Fun.id
        (Array.mapi
           (fun slot values ->
             List.mem (Scm_device.load64 m.dev (slot * 8)) values)
           possible))

let () =
  Alcotest.run "scm"
    [
      ( "device",
        [
          Alcotest.test_case "roundtrip" `Quick test_device_roundtrip;
          Alcotest.test_case "bounds" `Quick test_device_bounds;
          Alcotest.test_case "wear counters" `Quick test_device_wear_counters;
          Alcotest.test_case "image roundtrip" `Quick
            test_device_image_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "write-back on flush" `Quick
            test_cache_write_back_on_flush;
          Alcotest.test_case "eviction writes back" `Quick
            test_cache_eviction_writes_back;
          Alcotest.test_case "byte ranges span lines" `Quick
            test_cache_byte_range_spanning_lines;
          Alcotest.test_case "dirty lines listing" `Quick
            test_cache_dirty_lines_listing;
          Alcotest.test_case "eviction sequence matches reference model"
            `Quick test_cache_eviction_sequence_matches_model;
        ] );
      ( "journal",
        [
          Alcotest.test_case "undo restores a snapshot" `Quick
            test_device_journal_restores_snapshot;
          Alcotest.test_case "nested marks" `Quick
            test_device_journal_nested_marks;
        ] );
      ( "wc-buffer",
        [
          Alcotest.test_case "forwarding and drain" `Quick
            test_wc_forwarding_and_drain;
          Alcotest.test_case "crash applies a strict subset" `Quick
            test_wc_crash_subset_is_partial;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "store volatile until persist" `Quick
            test_store_volatile_until_persist;
          Alcotest.test_case "wtstore durable after fence" `Quick
            test_wtstore_durable_after_fence;
          Alcotest.test_case "wtstore after cached store" `Quick
            test_wtstore_after_cached_store;
          Alcotest.test_case "latency charges" `Quick test_latency_charges;
          Alcotest.test_case "fence bandwidth model" `Quick
            test_fence_bandwidth_model;
          Alcotest.test_case "persist range" `Quick test_persist_range;
        ] );
      ( "crash",
        [
          Alcotest.test_case "drops unflushed" `Quick
            test_crash_drops_unflushed;
          Alcotest.test_case "preserves persisted" `Quick
            test_crash_preserves_persisted;
          Alcotest.test_case "random eviction policy" `Quick
            test_crash_random_eviction_policy;
        ] );
      ( "crashpoint",
        [
          Alcotest.test_case "deterministic op count" `Quick
            test_crashpoint_counts_deterministically;
          Alcotest.test_case "fires at every index" `Quick
            test_crashpoint_fires_at_every_index;
          Alcotest.test_case "arm validation" `Quick
            test_crashpoint_arm_validation;
        ] );
      ( "word",
        [
          Alcotest.test_case "bit ops" `Quick test_word_bits;
          Alcotest.test_case "string chunks" `Quick test_word_string_chunks;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cache_coherence;
          QCheck_alcotest.to_alcotest prop_crash_word_atomicity;
        ] );
    ]
