(* Tests for the Mnemosyne facade (open/close/reincarnate, the Log
   facade, pstatic/pmap passthroughs) and the workload utilities. *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemocore" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)

let test_open_close_reopen () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let slot = Mnemosyne.pstatic inst "core.x" 8 in
      let v = Mnemosyne.view inst in
      Region.Pmem.wtstore v slot 99L;
      Region.Pmem.fence v;
      Mnemosyne.close inst;
      (* clean reopen from the saved image *)
      let inst = Mnemosyne.open_instance ~dir () in
      let slot = Mnemosyne.pstatic inst "core.x" 8 in
      Alcotest.(check int64) "survives clean close" 99L
        (Region.Pmem.load (Mnemosyne.view inst) slot);
      let stats = Mnemosyne.reincarnation_stats inst in
      Alcotest.(check int) "no replay on clean open" 0 stats.txns_replayed;
      Alcotest.(check bool) "boot cost present" true (stats.boot_ns > 0))

let test_pmap_punmap_through_facade () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      (* the instance's own regions (heap, transaction logs) exist too *)
      let before = Region.Pmem.regions (Mnemosyne.pmem inst) in
      let r = Mnemosyne.pmap inst 12_000 in
      let v = Mnemosyne.view inst in
      Region.Pmem.store v r 1L;
      Alcotest.(check int) "one more region" (List.length before + 1)
        (List.length (Region.Pmem.regions (Mnemosyne.pmem inst)));
      Mnemosyne.punmap inst r;
      Alcotest.(check (list (pair int int))) "region gone" before
        (Region.Pmem.regions (Mnemosyne.pmem inst)))

let test_pmalloc_pfree_through_facade () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let slot = Mnemosyne.pstatic inst "core.ptr" 8 in
      let addr = Mnemosyne.pmalloc inst 128 ~slot in
      Alcotest.(check int64) "slot set" (Int64.of_int addr)
        (Region.Pmem.load (Mnemosyne.view inst) slot);
      Mnemosyne.pfree inst ~slot;
      Alcotest.(check int64) "slot cleared" 0L
        (Region.Pmem.load (Mnemosyne.view inst) slot))

let test_log_facade_roundtrip () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let log = Mnemosyne.Log.create inst ~name:"ev" ~cap_words:256 in
      Alcotest.(check int) "fresh log empty" 0
        (List.length (Mnemosyne.Log.recovered log));
      Mnemosyne.Log.append log [| 1L; 2L |];
      Mnemosyne.Log.append log [| 3L |];
      Mnemosyne.Log.flush log;
      let inst = Mnemosyne.reincarnate inst in
      let log = Mnemosyne.Log.create inst ~name:"ev" ~cap_words:256 in
      Alcotest.(check int) "both records recovered" 2
        (List.length (Mnemosyne.Log.recovered log));
      Mnemosyne.Log.truncate log;
      let inst = Mnemosyne.reincarnate inst in
      let log = Mnemosyne.Log.create inst ~name:"ev" ~cap_words:256 in
      Alcotest.(check int) "truncation durable" 0
        (List.length (Mnemosyne.Log.recovered log));
      ignore inst)

let test_log_facade_self_truncates_when_full () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let log = Mnemosyne.Log.create inst ~name:"small" ~cap_words:16 in
      (* far more than capacity: append must keep succeeding *)
      for i = 0 to 63 do
        Mnemosyne.Log.append log [| Int64.of_int i; 0L |]
      done;
      Mnemosyne.Log.flush log)

let test_distinct_instances_are_isolated () =
  with_tmpdir (fun dir1 ->
      with_tmpdir (fun dir2 ->
          let a = Mnemosyne.open_instance ~dir:dir1 () in
          let b = Mnemosyne.open_instance ~dir:dir2 () in
          let sa = Mnemosyne.pstatic a "iso" 8 in
          let sb = Mnemosyne.pstatic b "iso" 8 in
          Region.Pmem.wtstore (Mnemosyne.view a) sa 1L;
          Region.Pmem.fence (Mnemosyne.view a);
          Alcotest.(check int64) "b unaffected" 0L
            (Region.Pmem.load (Mnemosyne.view b) sb)))

(* ------------------------------------------------------------------ *)
(* Workload utilities *)

(* The bench harness records per-operation latencies straight into
   Obs histograms. *)
let test_stats_percentiles () =
  let s = Obs.Metrics.make_histogram "latency_ns" in
  for i = 1 to 100 do
    Obs.Metrics.record s (i * 10)
  done;
  Alcotest.(check int) "count" 100 (Obs.Metrics.hcount s);
  Alcotest.(check (float 0.01)) "mean" 505.0 (Obs.Metrics.hmean s);
  Alcotest.(check int) "min" 10 (Obs.Metrics.hmin s);
  Alcotest.(check int) "max" 1000 (Obs.Metrics.hmax s);
  Alcotest.(check int) "p50" 510 (Obs.Metrics.percentile s 50.0);
  Alcotest.(check int) "p99" 990 (Obs.Metrics.percentile s 99.0)

let test_zipf_skew () =
  let kg = Workload.Keygen.create ~seed:1 () in
  let dist = Workload.Keygen.Zipf.make kg ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let r = Workload.Keygen.Zipf.draw dist in
    counts.(r) <- counts.(r) + 1
  done;
  (* rank 0 must dominate and the tail must still be hit *)
  Alcotest.(check bool) "head dominates" true (counts.(0) > counts.(100) * 5);
  let tail_hits = Array.fold_left ( + ) 0 (Array.sub counts 500 500) in
  Alcotest.(check bool) "tail sampled" true (tail_hits > 0);
  (* Two samplers over one shared table, drawn alternately, draw what
     [make] draws for the same seeds. *)
  let table = Workload.Keygen.Zipf.table ~n:1000 ~theta:0.99 in
  let shared seed =
    Workload.Keygen.Zipf.sampler (Workload.Keygen.create ~seed ()) table
  in
  let own seed =
    Workload.Keygen.Zipf.make (Workload.Keygen.create ~seed ()) ~n:1000
      ~theta:0.99
  in
  let pairs x y =
    List.init 1000 (fun _ ->
        let rx = Workload.Keygen.Zipf.draw x in
        (rx, Workload.Keygen.Zipf.draw y))
  in
  Alcotest.(check (list (pair int int)))
    "shared-table draws equal make's" (pairs (own 2) (own 3))
    (pairs (shared 2) (shared 3))

(* The table built in two loops equals, bit for bit, the formulation
   that maps a weights array, folds its sum and accumulates each
   share. *)
let test_zipf_table_bits () =
  let reference ~n ~theta =
    let weights =
      Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta)
    in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        acc := !acc +. (w /. total);
        cdf.(i) <- !acc)
      weights;
    cdf.(n - 1) <- 1.0;
    cdf
  in
  List.iter
    (fun (n, theta) ->
      let bits a = Array.map Int64.bits_of_float a in
      Alcotest.(check (array int64))
        (Printf.sprintf "n = %d, theta = %g" n theta)
        (bits (reference ~n ~theta))
        (bits (Workload.Keygen.Zipf.table ~n ~theta :> float array)))
    [ (100_000, 0.99); (50_000, 0.2) ]

let test_keygen_determinism () =
  let a = Workload.Keygen.create ~seed:7 () in
  let b = Workload.Keygen.create ~seed:7 () in
  Alcotest.(check bytes) "same sequence"
    (Workload.Keygen.value a 32)
    (Workload.Keygen.value b 32);
  Alcotest.(check bytes) "seq key stable" (Bytes.of_string "k00000042")
    (Workload.Keygen.seq_key 42)

let () =
  Alcotest.run "core"
    [
      ( "facade",
        [
          Alcotest.test_case "open/close/reopen" `Quick test_open_close_reopen;
          Alcotest.test_case "pmap/punmap" `Quick
            test_pmap_punmap_through_facade;
          Alcotest.test_case "pmalloc/pfree" `Quick
            test_pmalloc_pfree_through_facade;
          Alcotest.test_case "log facade roundtrip" `Quick
            test_log_facade_roundtrip;
          Alcotest.test_case "log self-truncates when full" `Quick
            test_log_facade_self_truncates_when_full;
          Alcotest.test_case "instances isolated" `Quick
            test_distinct_instances_are_isolated;
        ] );
      ( "workload",
        [
          Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf table bit for bit" `Quick
            test_zipf_table_bits;
          Alcotest.test_case "keygen determinism" `Quick
            test_keygen_determinism;
        ] );
    ]
