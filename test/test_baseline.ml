(* Tests for the comparator stack: PCM-disk, the WAL with group commit,
   the page cache, the BDB-style store, the serializer and the msync
   store. *)

let env () = Scm.Env.standalone (Scm.Env.make_machine ~nframes:16 ())

let sim_env sim m =
  Scm.Env.view m ~delay:(fun ns -> Sim.delay sim ns)
    ~now:(fun () -> Sim.now sim)

(* ------------------------------------------------------------------ *)
(* PCM-disk *)

let test_disk_roundtrip () =
  let disk = Baseline.Pcm_disk.create ~nblocks:8 () in
  let e = env () in
  let block = Bytes.make Baseline.Pcm_disk.block_bytes 'z' in
  Baseline.Pcm_disk.write_block disk e 3 block;
  Alcotest.(check bytes) "roundtrip" block (Baseline.Pcm_disk.read_block disk e 3);
  Alcotest.(check int) "blocks written" 1 (Baseline.Pcm_disk.blocks_written disk)

let test_disk_write_costs () =
  let disk = Baseline.Pcm_disk.create ~nblocks:64 () in
  let e = env () in
  let t0 = e.now () in
  Baseline.Pcm_disk.write_block disk e 0
    (Bytes.make Baseline.Pcm_disk.block_bytes 'a');
  let one = e.now () - t0 in
  let t0 = e.now () in
  Baseline.Pcm_disk.write_blocks disk e 1 (Bytes.make (16 * 4096) 'b');
  let sixteen = e.now () - t0 in
  Alcotest.(check bool) "multi-block amortizes software cost" true
    (sixteen < 16 * one);
  Alcotest.(check bool) "but still pays the bandwidth" true
    (sixteen > 8 * Scm.Latency_model.streaming_write_ns
                 (Baseline.Pcm_disk.latency_model disk) 4096)

let test_disk_sensitivity () =
  let slow =
    Scm.Latency_model.with_pcm_write_ns Scm.Latency_model.default 2000
  in
  let d1 = Baseline.Pcm_disk.create ~nblocks:8 () in
  let d2 = Baseline.Pcm_disk.create ~latency:slow ~nblocks:8 () in
  Alcotest.(check bool) "slower media costs more" true
    (Baseline.Pcm_disk.write_cost_ns d2 64
     > Baseline.Pcm_disk.write_cost_ns d1 64)

(* ------------------------------------------------------------------ *)
(* WAL and group commit *)

let test_wal_single_thread_flushes_each () =
  let disk = Baseline.Pcm_disk.create ~nblocks:512 () in
  let wal = Baseline.Wal.create disk ~start_block:0 ~blocks:256 in
  let e = env () in
  for _ = 1 to 5 do
    Baseline.Wal.commit_record wal e 100
  done;
  Alcotest.(check int) "records" 5 (Baseline.Wal.records wal);
  Alcotest.(check int) "one flush each" 5 (Baseline.Wal.flushes wal)

let test_wal_group_commit_amortizes () =
  (* Many threads committing concurrently must share flushes: the
     achieved group size exceeds 1, and every committer still waits for
     its own record's durability. *)
  let sim = Sim.create () in
  let disk = Baseline.Pcm_disk.create ~nblocks:512 () in
  let wal = Baseline.Wal.create ~sim disk ~start_block:0 ~blocks:256 in
  let m = Scm.Env.make_machine ~nframes:16 () in
  let committed = ref 0 in
  for _ = 1 to 8 do
    Sim.spawn sim (fun () ->
        let e = sim_env sim m in
        for _ = 1 to 10 do
          Baseline.Wal.commit_record wal e 64;
          incr committed
        done)
  done;
  Sim.run sim;
  Alcotest.(check int) "all committed" 80 !committed;
  Alcotest.(check int) "all recorded" 80 (Baseline.Wal.records wal);
  Alcotest.(check bool) "groups formed" true (Baseline.Wal.flushes wal < 80);
  Alcotest.(check bool) "but more than one flush" true
    (Baseline.Wal.flushes wal > 1)

let test_wal_serialization_limits_scaling () =
  (* Throughput with 4 threads must be well below 4x of 1 thread: the
     in-mutex record insertion is the bottleneck the paper blames. *)
  let run threads =
    let sim = Sim.create () in
    let disk = Baseline.Pcm_disk.create ~nblocks:512 () in
    let wal = Baseline.Wal.create ~sim disk ~start_block:0 ~blocks:256 in
    let m = Scm.Env.make_machine ~nframes:16 () in
    for _ = 1 to threads do
      Sim.spawn sim (fun () ->
          let e = sim_env sim m in
          for _ = 1 to 25 do
            Baseline.Wal.commit_record wal e 64;
            Sim.delay sim 10_000 (* non-storage work *)
          done)
    done;
    Sim.run sim;
    float_of_int (25 * threads) /. float_of_int (Sim.now sim)
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool) "some speedup" true (t4 > t1);
  Alcotest.(check bool) "far from linear" true (t4 < 3.0 *. t1)

(* ------------------------------------------------------------------ *)
(* Page cache *)

let test_page_cache_eviction_writes_back () =
  let disk = Baseline.Pcm_disk.create ~nblocks:64 () in
  let cache = Baseline.Page_cache.create disk ~capacity_pages:4 in
  let e = env () in
  (* dirty 8 pages in a 4-page cache *)
  for p = 0 to 7 do
    let page = Baseline.Page_cache.get cache e p in
    Bytes.set page 0 (Char.chr (100 + p));
    Baseline.Page_cache.mark_dirty cache p
  done;
  Alcotest.(check bool) "capacity respected" true
    (Baseline.Page_cache.resident cache <= 4);
  Alcotest.(check bool) "evictions wrote back" true
    (Baseline.Pcm_disk.blocks_written disk >= 4);
  (* every page must read back its byte, possibly from disk *)
  for p = 0 to 7 do
    let page = Baseline.Page_cache.get cache e p in
    Alcotest.(check char)
      (Printf.sprintf "page %d" p)
      (Char.chr (100 + p))
      (Bytes.get page 0)
  done

(* ------------------------------------------------------------------ *)
(* BDB store *)

let test_bdb_functional () =
  let disk = Baseline.Pcm_disk.create ~nblocks:1024 () in
  let bdb = Baseline.Bdb.create disk in
  let e = env () in
  let k s = Bytes.of_string s in
  Baseline.Bdb.put bdb e (k "a") (k "1");
  Baseline.Bdb.put bdb e (k "b") (k "2");
  Baseline.Bdb.put bdb e (k "a") (k "1'");
  Alcotest.(check (option bytes)) "get a" (Some (k "1'"))
    (Baseline.Bdb.get bdb e (k "a"));
  Alcotest.(check (option bytes)) "get c" None (Baseline.Bdb.get bdb e (k "c"));
  Alcotest.(check bool) "delete" true (Baseline.Bdb.delete bdb e (k "b"));
  Alcotest.(check bool) "delete gone" false (Baseline.Bdb.delete bdb e (k "b"));
  Alcotest.(check int) "length" 1 (Baseline.Bdb.length bdb)

let test_bdb_put_latency_flat_with_size () =
  (* the disk-era optimization: latency grows slowly with value size *)
  let disk = Baseline.Pcm_disk.create ~nblocks:1024 () in
  let bdb = Baseline.Bdb.create disk in
  let e = env () in
  let cost size =
    let t0 = e.now () in
    Baseline.Bdb.put bdb e (Bytes.of_string "key") (Bytes.make size 'v');
    e.now () - t0
  in
  let small = cost 8 and big = cost 4096 in
  Alcotest.(check bool) "grows sublinearly" true (big < 3 * small)

(* ------------------------------------------------------------------ *)
(* Serializer *)

let test_serializer_roundtrip () =
  let entries =
    List.init 50 (fun i ->
        (Int64.of_int (i * 7), Bytes.make (1 + (i mod 30)) (Char.chr (65 + (i mod 26)))))
  in
  let disk = Baseline.Pcm_disk.create ~nblocks:64 () in
  let e = env () in
  let bytes = Baseline.Serializer.serialize disk e ~start_block:0 entries in
  Alcotest.(check bool) "wrote something" true (bytes > 0);
  let back = Baseline.Serializer.deserialize disk e ~start_block:0 in
  Alcotest.(check int) "count" 50 (List.length back);
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check int64) "key" k k';
      Alcotest.(check bytes) "value" v v')
    entries back

let prop_serializer_roundtrip =
  QCheck.Test.make ~name:"serializer encode/decode roundtrip" ~count:100
    QCheck.(small_list (pair int64 (string_of_size Gen.(0 -- 64))))
    (fun entries ->
      let entries = List.map (fun (k, s) -> (k, Bytes.of_string s)) entries in
      Baseline.Serializer.decode (Baseline.Serializer.encode entries)
      = entries)

let test_serializer_cost_linear () =
  let disk = Baseline.Pcm_disk.create ~nblocks:4096 () in
  let e = env () in
  let cost n =
    let entries = List.init n (fun i -> (Int64.of_int i, Bytes.make 88 'x')) in
    let t0 = e.now () in
    ignore (Baseline.Serializer.serialize disk e ~start_block:0 entries);
    e.now () - t0
  in
  let c1 = cost 100 and c8 = cost 800 in
  Alcotest.(check bool) "roughly linear" true
    (c8 > 5 * c1 && c8 < 12 * c1)

(* ------------------------------------------------------------------ *)
(* Msync store *)

let test_msync_functional_and_costs () =
  let disk = Baseline.Pcm_disk.create ~nblocks:1024 () in
  let store = Baseline.Msync_store.create disk in
  let e = env () in
  let k s = Bytes.of_string s in
  let cost f =
    let t0 = e.now () in
    f ();
    e.now () - t0
  in
  let small =
    cost (fun () -> Baseline.Msync_store.put store e (k "a") (Bytes.make 64 'v'))
  in
  let big =
    cost (fun () -> Baseline.Msync_store.put store e (k "b") (Bytes.make 1024 'v'))
  in
  Alcotest.(check (option bytes)) "get" (Some (Bytes.make 64 'v'))
    (Baseline.Msync_store.get store e (k "a"));
  Alcotest.(check bool) "write amplification bites large values" true
    (big > 5 * small);
  Alcotest.(check bool) "delete" true (Baseline.Msync_store.delete store e (k "a"));
  Alcotest.(check int) "length" 1 (Baseline.Msync_store.length store)

let () =
  Alcotest.run "baseline"
    [
      ( "pcm-disk",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "write costs" `Quick test_disk_write_costs;
          Alcotest.test_case "latency sensitivity" `Quick
            test_disk_sensitivity;
        ] );
      ( "wal",
        [
          Alcotest.test_case "single-thread flushes each" `Quick
            test_wal_single_thread_flushes_each;
          Alcotest.test_case "group commit amortizes" `Quick
            test_wal_group_commit_amortizes;
          Alcotest.test_case "serialization limits scaling" `Quick
            test_wal_serialization_limits_scaling;
        ] );
      ( "page-cache",
        [
          Alcotest.test_case "eviction writes back" `Quick
            test_page_cache_eviction_writes_back;
        ] );
      ( "bdb",
        [
          Alcotest.test_case "functional" `Quick test_bdb_functional;
          Alcotest.test_case "latency flat with size" `Quick
            test_bdb_put_latency_flat_with_size;
        ] );
      ( "serializer",
        [
          Alcotest.test_case "roundtrip" `Quick test_serializer_roundtrip;
          Alcotest.test_case "cost linear" `Quick test_serializer_cost_linear;
          QCheck_alcotest.to_alcotest prop_serializer_roundtrip;
        ] );
      ( "msync",
        [
          Alcotest.test_case "functional and costs" `Quick
            test_msync_functional_and_costs;
        ] );
    ]
