(* Tests for durable memory transactions: atomicity, durability,
   isolation under the simulator, transactional allocation, recovery
   ordering across per-thread logs, and async truncation. *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemomtm" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let small_cfg =
  { Mtm.Txn.default_config with nthreads = 4; log_cap_words = 4096 }

let stack ?(nframes = 4096) ?(seed = 3) dir =
  let m = Scm.Env.make_machine ~seed ~nframes () in
  let backing = Region.Backing_store.open_dir dir in
  let pmem = Region.Pmem.open_instance m backing in
  (m, pmem)

let reboot (m : Scm.Env.machine) dir =
  let m' = Scm.Env.machine_of_device m.dev in
  let backing = Region.Backing_store.open_dir dir in
  let pmem = Region.Pmem.open_instance m' backing in
  (m', pmem)

let heap_of pmem =
  let v = Region.Pmem.default_view pmem in
  let slot = Region.Pstatic.get v "test.heap" 8 in
  match Int64.to_int (Region.Pmem.load v slot) with
  | 0 ->
      let bytes = Pmheap.Heap.region_bytes_for ~superblocks:16 ~large_bytes:65536 in
      let base = Region.Pmem.pmap v bytes in
      Region.Pmem.wtstore v slot (Int64.of_int base);
      Region.Pmem.fence v;
      Pmheap.Heap.create v ~base ~superblocks:16 ~large_bytes:65536
  | base -> Pmheap.Heap.attach v ~base

let pool_of ?(config = small_cfg) pmem =
  Mtm.Txn.create_pool ~config pmem (Some (heap_of pmem))

let data_region pmem bytes =
  let v = Region.Pmem.default_view pmem in
  let slot = Region.Pstatic.get v "test.data" 8 in
  match Int64.to_int (Region.Pmem.load v slot) with
  | 0 ->
      let base = Region.Pmem.pmap v bytes in
      Region.Pmem.wtstore v slot (Int64.of_int base);
      Region.Pmem.fence v;
      base
  | base -> base

(* ------------------------------------------------------------------ *)
(* Single-threaded basics *)

let test_commit_visible_and_durable () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
      Mtm.Txn.run th (fun tx ->
          Mtm.Txn.store tx data 10L;
          Mtm.Txn.store tx (data + 8) 20L);
      let v = Region.Pmem.default_view pmem in
      Alcotest.(check int64) "visible" 10L (Region.Pmem.load v data);
      (* survive an adversarial crash: sync truncation already forced
         the data, and the log was truncated *)
      Scm.Crash.inject m;
      let _, pmem' = reboot m dir in
      let pool' = pool_of pmem' in
      Alcotest.(check int) "nothing to replay" 0
        (Mtm.Txn.recovered_txns pool');
      let v' = Region.Pmem.default_view pmem' in
      Alcotest.(check int64) "durable w0" 10L (Region.Pmem.load v' data);
      Alcotest.(check int64) "durable w1" 20L (Region.Pmem.load v' (data + 8)))

let test_user_exception_aborts () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
      (try
         Mtm.Txn.run th (fun tx ->
             Mtm.Txn.store tx data 99L;
             failwith "boom")
       with Failure _ -> ());
      let v = Region.Pmem.default_view pmem in
      Alcotest.(check int64) "no effect" 0L (Region.Pmem.load v data);
      Alcotest.(check int) "one abort" 1 (Mtm.Txn.stats pool).aborts)

let test_cancel () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
      (try
         Mtm.Txn.run th (fun tx ->
             Mtm.Txn.store tx data 1L;
             Mtm.Txn.cancel tx)
       with Mtm.Txn.Cancelled -> ());
      let v = Region.Pmem.default_view pmem in
      Alcotest.(check int64) "cancelled" 0L (Region.Pmem.load v data))

let test_read_your_writes_and_lazy_versioning () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let v = Region.Pmem.default_view pmem in
      Region.Pmem.wtstore v data 5L;
      Region.Pmem.fence v;
      let th = Mtm.Txn.thread pool 0 v.env in
      Mtm.Txn.run th (fun tx ->
          Alcotest.(check int64) "initial read" 5L (Mtm.Txn.load tx data);
          Mtm.Txn.store tx data 6L;
          Alcotest.(check int64) "read own write" 6L (Mtm.Txn.load tx data);
          (* lazy version management: memory still holds the old value *)
          Alcotest.(check int64) "memory unmodified during txn" 5L
            (Region.Pmem.load v data));
      Alcotest.(check int64) "after commit" 6L (Region.Pmem.load v data))

let test_bytes_roundtrip () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
      let payload = Bytes.of_string "persistent memory is lightweight!" in
      Mtm.Txn.run th (fun tx -> Mtm.Txn.write_bytes tx data payload);
      let got =
        Mtm.Txn.run th (fun tx ->
            Mtm.Txn.read_bytes tx data (Bytes.length payload))
      in
      Alcotest.(check bytes) "roundtrip" payload got)

let test_nested_flattening () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
      Mtm.Txn.run th (fun tx ->
          Mtm.Txn.store tx data 1L;
          Mtm.Txn.run th (fun tx' -> Mtm.Txn.store tx' (data + 8) 2L);
          ignore tx);
      let v = Region.Pmem.default_view pmem in
      Alcotest.(check int64) "outer" 1L (Region.Pmem.load v data);
      Alcotest.(check int64) "inner" 2L (Region.Pmem.load v (data + 8));
      Alcotest.(check int) "one commit" 1 (Mtm.Txn.stats pool).commits)

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let test_uncommitted_never_applied_committed_replayed () =
  with_tmpdir (fun dir ->
      (* Async truncation without a daemon: committed data lives only in
         the redo log (write-backs are cached and lost in the crash), so
         recovery must replay it. *)
      let m, pmem = stack dir in
      let cfg = { small_cfg with truncation = Mtm.Txn.Async } in
      let pool = pool_of ~config:cfg pmem in
      let data = data_region pmem 4096 in
      let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
      Mtm.Txn.run th (fun tx ->
          Mtm.Txn.store tx data 77L;
          Mtm.Txn.store tx (data + 128) 78L);
      Alcotest.(check int) "pending truncation" 1
        (Mtm.Txn.pending_truncations th);
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_apply_all }
        m;
      let _, pmem' = reboot m dir in
      let pool' = pool_of ~config:cfg pmem' in
      Alcotest.(check int) "one txn replayed" 1 (Mtm.Txn.recovered_txns pool');
      let v' = Region.Pmem.default_view pmem' in
      Alcotest.(check int64) "replayed w0" 77L (Region.Pmem.load v' data);
      Alcotest.(check int64) "replayed w1" 78L
        (Region.Pmem.load v' (data + 128)))

let test_recovery_orders_across_threads () =
  with_tmpdir (fun dir ->
      (* Two threads write the same address in a known serial order; the
         logs are per-thread, so only the global timestamps can order
         the replay. *)
      let m, pmem = stack dir in
      let cfg = { small_cfg with truncation = Mtm.Txn.Async } in
      let pool = pool_of ~config:cfg pmem in
      let data = data_region pmem 4096 in
      let v = Region.Pmem.default_view pmem in
      let th0 = Mtm.Txn.thread pool 0 v.env in
      let th1 = Mtm.Txn.thread pool 1 v.env in
      Mtm.Txn.run th0 (fun tx -> Mtm.Txn.store tx data 1L);
      Mtm.Txn.run th1 (fun tx -> Mtm.Txn.store tx data 2L);
      Mtm.Txn.run th0 (fun tx -> Mtm.Txn.store tx data 3L);
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_apply_all }
        m;
      let _, pmem' = reboot m dir in
      let pool' = pool_of ~config:cfg pmem' in
      Alcotest.(check int) "three txns replayed" 3
        (Mtm.Txn.recovered_txns pool');
      let v' = Region.Pmem.default_view pmem' in
      Alcotest.(check int64) "timestamp order wins" 3L
        (Region.Pmem.load v' data))

let test_crash_stress_all_or_nothing () =
  (* The paper's crash stress test: transactions perform known updates;
     after a crash, every transaction's writes are either fully present
     or fully absent. *)
  let checked = ref 0 in
  for seed = 0 to 19 do
    with_tmpdir (fun dir ->
        let m, pmem = stack ~seed dir in
        let cfg = { small_cfg with truncation = Mtm.Txn.Async } in
        let pool = pool_of ~config:cfg pmem in
        let data = data_region pmem 65536 in
        let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
        let ntxns = 20 in
        (* txn i owns words [i*16, i*16+8): writes 8 words, all tagged i+1 *)
        for i = 0 to ntxns - 1 do
          Mtm.Txn.run th (fun tx ->
              for j = 0 to 7 do
                Mtm.Txn.store tx
                  (data + (i * 128) + (j * 8))
                  (Int64.of_int (i + 1))
              done)
        done;
        (* crash with arbitrary subsets of log writes applied *)
        Scm.Crash.inject m;
        let _, pmem' = reboot m dir in
        let _pool' = pool_of ~config:cfg pmem' in
        let v' = Region.Pmem.default_view pmem' in
        for i = 0 to ntxns - 1 do
          let words =
            List.init 8 (fun j ->
                Region.Pmem.load v' (data + (i * 128) + (j * 8)))
          in
          let expect = Int64.of_int (i + 1) in
          let all_set = List.for_all (fun w -> w = expect) words in
          let none_set = List.for_all (fun w -> w = 0L) words in
          if not (all_set || none_set) then
            Alcotest.failf "seed %d txn %d torn: %s" seed i
              (String.concat ","
                 (List.map Int64.to_string words));
          incr checked
        done)
  done;
  Alcotest.(check int) "all txns checked" (20 * 20) !checked

(* ------------------------------------------------------------------ *)
(* Transactional allocation *)

let test_alloc_commits_with_txn () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of pmem in
      let v = Region.Pmem.default_view pmem in
      let slot = Region.Pstatic.get v "obj" 8 in
      let th = Mtm.Txn.thread pool 0 v.env in
      let addr =
        Mtm.Txn.run th (fun tx ->
            let a = Mtm.Txn.alloc tx 64 ~slot in
            Mtm.Txn.store tx a 42L;
            a)
      in
      Alcotest.(check int64) "slot set" (Int64.of_int addr)
        (Region.Pmem.load v slot);
      Scm.Crash.inject m;
      let _, pmem' = reboot m dir in
      let heap' = heap_of pmem' in
      let v' = Region.Pmem.default_view pmem' in
      Alcotest.(check int64) "slot durable" (Int64.of_int addr)
        (Region.Pmem.load v' slot);
      Alcotest.(check int64) "contents durable" 42L (Region.Pmem.load v' addr);
      (* block is genuinely allocated: freeing through the slot works *)
      Pmheap.Heap.pfree heap' ~slot;
      Alcotest.(check int64) "freed" 0L (Region.Pmem.load v' slot))

let test_alloc_aborts_with_txn () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of pmem in
      let v = Region.Pmem.default_view pmem in
      let slot = Region.Pstatic.get v "obj" 8 in
      let th = Mtm.Txn.thread pool 0 v.env in
      (try
         Mtm.Txn.run th (fun tx ->
             let a = Mtm.Txn.alloc tx 64 ~slot in
             Mtm.Txn.store tx a 42L;
             failwith "abort it")
       with Failure _ -> ());
      Alcotest.(check int64) "slot untouched" 0L (Region.Pmem.load v slot);
      (* no leak even across a crash: the bitmap bit was never durably
         set because it only lived in the aborted transaction *)
      Scm.Crash.inject m;
      let _, pmem' = reboot m dir in
      let heap' = heap_of pmem' in
      let v' = Region.Pmem.default_view pmem' in
      let slot' = Region.Pstatic.get v' "obj" 8 in
      (* allocating every 64-byte block must eventually succeed exactly
         as if the aborted allocation never happened; just check one
         allocation works and the heap is consistent *)
      let a = Pmheap.Heap.pmalloc heap' 64 ~slot:slot' in
      Alcotest.(check bool) "clean state" true (a > 0))

let test_free_in_txn () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of pmem in
      let v = Region.Pmem.default_view pmem in
      let slot = Region.Pstatic.get v "obj" 8 in
      let th = Mtm.Txn.thread pool 0 v.env in
      ignore (Mtm.Txn.run th (fun tx -> Mtm.Txn.alloc tx 64 ~slot));
      (* free it, but abort: must stay allocated *)
      (try
         Mtm.Txn.run th (fun tx ->
             Mtm.Txn.free tx ~slot;
             failwith "abort")
       with Failure _ -> ());
      Alcotest.(check bool) "still allocated" true
        (Region.Pmem.load v slot <> 0L);
      (* now free for real *)
      Mtm.Txn.run th (fun tx -> Mtm.Txn.free tx ~slot);
      Alcotest.(check int64) "slot cleared" 0L (Region.Pmem.load v slot);
      (* double free inside a transaction is rejected *)
      ignore (Mtm.Txn.run th (fun tx -> Mtm.Txn.alloc tx 64 ~slot));
      Alcotest.check_raises "double free in txn"
        (Invalid_argument "Hoard.free: block is not allocated (double free?)")
        (fun () ->
          Mtm.Txn.run th (fun tx ->
              let addr = Mtm.Txn.load tx slot in
              Mtm.Txn.free tx ~slot;
              (* restore the slot so we can "free" the same block again *)
              Mtm.Txn.store tx slot addr;
              Mtm.Txn.free tx ~slot)))

let test_large_alloc_in_txn () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of pmem in
      let v = Region.Pmem.default_view pmem in
      let slot = Region.Pstatic.get v "big" 8 in
      let th = Mtm.Txn.thread pool 0 v.env in
      let addr = Mtm.Txn.run th (fun tx -> Mtm.Txn.alloc tx 10_000 ~slot) in
      Alcotest.(check int64) "slot" (Int64.of_int addr)
        (Region.Pmem.load v slot);
      (* abort path compensates immediately *)
      (try
         Mtm.Txn.run th (fun tx ->
             ignore (Mtm.Txn.alloc tx 10_000 ~slot:(slot));
             failwith "abort")
       with Failure _ -> ());
      Alcotest.(check int64) "slot still the first block"
        (Int64.of_int addr) (Region.Pmem.load v slot);
      Mtm.Txn.run th (fun tx -> Mtm.Txn.free tx ~slot);
      Alcotest.(check int64) "freed" 0L (Region.Pmem.load v slot))

(* ------------------------------------------------------------------ *)
(* Concurrency under the simulator *)

let sim_env sim (m : Scm.Env.machine) =
  Scm.Env.view m ~delay:(fun ns -> Sim.delay sim ns)
    ~now:(fun () -> Sim.now sim)

let test_concurrent_counter_increments () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      let per_thread = 50 in
      for i = 0 to 3 do
        Sim.spawn sim (fun () ->
            let th = Mtm.Txn.thread pool i (sim_env sim m) in
            for _ = 1 to per_thread do
              Mtm.Txn.run th (fun tx ->
                  let v = Mtm.Txn.load tx data in
                  Mtm.Txn.store tx data (Int64.add v 1L))
            done)
      done;
      Sim.run sim;
      let v = Region.Pmem.default_view pmem in
      Alcotest.(check int64) "no lost updates" (Int64.of_int (4 * per_thread))
        (Region.Pmem.load v data);
      Alcotest.(check bool) "contention caused aborts" true
        ((Mtm.Txn.stats pool).aborts > 0))

let test_concurrent_disjoint_scale () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 65536 in
      let sim = Sim.create () in
      for i = 0 to 3 do
        Sim.spawn sim (fun () ->
            let th = Mtm.Txn.thread pool i (sim_env sim m) in
            for k = 0 to 24 do
              Mtm.Txn.run th (fun tx ->
                  Mtm.Txn.store tx
                    (data + (i * 16384) + (k * 64))
                    (Int64.of_int (i + 1)))
            done)
      done;
      Sim.run sim;
      Alcotest.(check int) "all committed" 100 (Mtm.Txn.stats pool).commits;
      let v = Region.Pmem.default_view pmem in
      for i = 0 to 3 do
        for k = 0 to 24 do
          Alcotest.(check int64)
            (Printf.sprintf "thread %d write %d" i k)
            (Int64.of_int (i + 1))
            (Region.Pmem.load v (data + (i * 16384) + (k * 64)))
        done
      done)

let test_isolation_no_dirty_reads () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      let observed = ref [] in
      (* writer: sets two words to the same value inside each txn *)
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 0 (sim_env sim m) in
          for k = 1 to 30 do
            Mtm.Txn.run th (fun tx ->
                Mtm.Txn.store tx data (Int64.of_int k);
                Mtm.Txn.store tx (data + 512) (Int64.of_int k))
          done);
      (* reader: both words must always agree *)
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 1 (sim_env sim m) in
          for _ = 1 to 60 do
            let a, b =
              Mtm.Txn.run th (fun tx ->
                  let a = Mtm.Txn.load tx data in
                  let b = Mtm.Txn.load tx (data + 512) in
                  (a, b))
            in
            observed := (a, b) :: !observed;
            Sim.delay sim 500
          done);
      Sim.run sim;
      List.iter
        (fun (a, b) ->
          if a <> b then
            Alcotest.failf "dirty/torn read observed: %Ld vs %Ld" a b)
        !observed;
      Alcotest.(check int) "observations" 60 (List.length !observed))

let test_contention_exception () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of ~config:small_cfg pmem in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      let got_contention = ref false in
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 0 (sim_env sim m) in
          Mtm.Txn.run th (fun tx ->
              Mtm.Txn.store tx data 1L;
              (* hold the lock for longer than 64 attempts' legacy
                 backoff (at most 400 ns x attempt each, 832 us in all) *)
              Sim.delay sim 2_000_000));
      Sim.spawn sim (fun () ->
          Sim.delay sim 100;
          let th = Mtm.Txn.thread pool 1 (sim_env sim m) in
          try Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx data 2L)
          with Mtm.Txn.Contention -> got_contention := true);
      Sim.run sim;
      Alcotest.(check bool) "contention surfaced" true !got_contention)

(* ------------------------------------------------------------------ *)
(* Async truncation daemon *)

let test_async_daemon_truncates () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let cfg = { small_cfg with truncation = Mtm.Txn.Async } in
      let pool = pool_of ~config:cfg pmem in
      let data = data_region pmem 65536 in
      let sim = Sim.create () in
      let processed = ref 0 in
      let th = ref None in
      Sim.spawn sim (fun () ->
          let t = Mtm.Txn.thread pool 0 (sim_env sim m) in
          th := Some t;
          for k = 0 to 49 do
            Mtm.Txn.run t (fun tx ->
                Mtm.Txn.store tx (data + (k * 64)) (Int64.of_int k))
          done);
      Sim.spawn sim (fun () ->
          let dview = Region.Pmem.view pmem (sim_env sim m) in
          for _ = 1 to 200 do
            Sim.delay sim 2_000;
            match !th with
            | Some t ->
                while Mtm.Txn.process_one_truncation t dview do
                  incr processed
                done
            | None -> ()
          done);
      Sim.run sim;
      Alcotest.(check int) "daemon consumed every commit" 50 !processed;
      (match !th with
      | Some t ->
          Alcotest.(check int) "queue drained" 0
            (Mtm.Txn.pending_truncations t)
      | None -> Alcotest.fail "no thread");
      (* after the daemon flushed everything, even a hard crash without
         log replay keeps the data: verify by checking memory directly *)
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
        m;
      let _, pmem' = reboot m dir in
      let v' = Region.Pmem.default_view pmem' in
      for k = 0 to 49 do
        Alcotest.(check int64)
          (Printf.sprintf "word %d survived" k)
          (Int64.of_int k)
          (Region.Pmem.load v' (data + (k * 64)))
      done)

let test_log_full_blocks_until_truncated () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let cfg =
        { small_cfg with truncation = Mtm.Txn.Async; log_cap_words = 64 }
      in
      let pool = pool_of ~config:cfg pmem in
      let data = data_region pmem 65536 in
      let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
      (* each txn writes 4 words -> record spans ~11 stored words; the
         64-word log fills after a few commits and the producer must
         self-drain (the paper's stall) rather than fail *)
      for k = 0 to 19 do
        Mtm.Txn.run th (fun tx ->
            for j = 0 to 3 do
              Mtm.Txn.store tx (data + (k * 256) + (j * 8)) 1L
            done)
      done;
      Alcotest.(check int) "all committed" 20 (Mtm.Txn.stats pool).commits)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_sequential_txns_match_model =
  QCheck.Test.make ~name:"sequential transactions match a memory model"
    ~count:25
    QCheck.(
      list_of_size Gen.(1 -- 30)
        (list_of_size Gen.(1 -- 8) (pair (int_bound 255) (int_bound 10_000))))
    (fun txns ->
      with_tmpdir (fun dir ->
          let _, pmem = stack dir in
          let pool = pool_of pmem in
          let data = data_region pmem 4096 in
          let th =
            Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env
          in
          let model = Hashtbl.create 64 in
          List.iter
            (fun writes ->
              Mtm.Txn.run th (fun tx ->
                  List.iter
                    (fun (slot, v) ->
                      Mtm.Txn.store tx (data + (slot * 8)) (Int64.of_int v);
                      Hashtbl.replace model slot (Int64.of_int v))
                    writes))
            txns;
          let v = Region.Pmem.default_view pmem in
          Hashtbl.fold
            (fun slot expected ok ->
              ok && Region.Pmem.load v (data + (slot * 8)) = expected)
            model true))

(* ------------------------------------------------------------------ *)
(* Eager undo logging (the paper's rejected alternative, section 5) *)

let undo_cfg =
  { small_cfg with version_mgmt = Mtm.Txn.Eager_undo }

let test_undo_commit_and_abort () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of ~config:undo_cfg pmem in
      let data = data_region pmem 4096 in
      let v = Region.Pmem.default_view pmem in
      let th = Mtm.Txn.thread pool 0 v.env in
      Mtm.Txn.run th (fun tx ->
          Mtm.Txn.store tx data 5L;
          (* eager version management: memory holds the new value
             mid-transaction (the opposite of redo's lazy buffering) *)
          Alcotest.(check int64) "in place during txn" 5L
            (Region.Pmem.load v data));
      Alcotest.(check int64) "committed" 5L (Region.Pmem.load v data);
      (try
         Mtm.Txn.run th (fun tx ->
             Mtm.Txn.store tx data 6L;
             Mtm.Txn.store tx (data + 8) 7L;
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int64) "rolled back" 5L (Region.Pmem.load v data);
      Alcotest.(check int64) "second word rolled back" 0L
        (Region.Pmem.load v (data + 8)))

let test_undo_crash_mid_txn_rolls_back () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of ~config:undo_cfg pmem in
      let data = data_region pmem 4096 in
      let v = Region.Pmem.default_view pmem in
      (* establish a durable baseline *)
      let th = Mtm.Txn.thread pool 0 v.env in
      Mtm.Txn.run th (fun tx ->
          for j = 0 to 7 do
            Mtm.Txn.store tx (data + (8 * j)) 100L
          done);
      let image = Filename.concat dir "crash.img" in
      (* crash in the middle of a transaction: snapshot the device
         after the power failure, before any abort path runs *)
      (try
         Mtm.Txn.run th (fun tx ->
             for j = 0 to 7 do
               Mtm.Txn.store tx (data + (8 * j)) 200L
             done;
             Scm.Crash.inject m;
             Scm.Scm_device.save_image m.dev image;
             raise Exit)
       with Exit -> ());
      (* reboot from the crash image *)
      let dev = Scm.Scm_device.load_image image in
      let m' = Scm.Env.machine_of_device dev in
      let backing = Region.Backing_store.open_dir dir in
      let pmem' = Region.Pmem.open_instance m' backing in
      let pool' = pool_of ~config:undo_cfg pmem' in
      Alcotest.(check int) "one in-flight txn rolled back" 1
        (Mtm.Txn.recovered_txns pool');
      let v' = Region.Pmem.default_view pmem' in
      for j = 0 to 7 do
        Alcotest.(check int64)
          (Printf.sprintf "word %d restored" j)
          100L
          (Region.Pmem.load v' (data + (8 * j)))
      done)

let test_undo_alloc_abort_no_leak () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of ~config:undo_cfg pmem in
      let v = Region.Pmem.default_view pmem in
      let slot = Region.Pstatic.get v "obj" 8 in
      let th = Mtm.Txn.thread pool 0 v.env in
      (try
         Mtm.Txn.run th (fun tx ->
             ignore (Mtm.Txn.alloc tx 64 ~slot);
             failwith "abort")
       with Failure _ -> ());
      Alcotest.(check int64) "slot restored" 0L (Region.Pmem.load v slot);
      (* allocate for real: heap state must be clean *)
      let addr = Mtm.Txn.run th (fun tx -> Mtm.Txn.alloc tx 64 ~slot) in
      Alcotest.(check int64) "clean allocation" (Int64.of_int addr)
        (Region.Pmem.load v slot))

let test_undo_concurrent_counter () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of ~config:undo_cfg pmem in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      for i = 0 to 3 do
        Sim.spawn sim (fun () ->
            let th = Mtm.Txn.thread pool i (sim_env sim m) in
            for _ = 1 to 25 do
              Mtm.Txn.run th (fun tx ->
                  let v = Mtm.Txn.load tx data in
                  Mtm.Txn.store tx data (Int64.add v 1L))
            done)
      done;
      Sim.run sim;
      let v = Region.Pmem.default_view pmem in
      Alcotest.(check int64) "no lost updates" 100L (Region.Pmem.load v data))

let test_undo_rejects_async () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      Alcotest.check_raises "undo + async rejected"
        (Invalid_argument
           "Txn.create_pool: undo logging commits by truncation and cannot \
be asynchronous")
        (fun () ->
          ignore
            (pool_of
               ~config:{ undo_cfg with truncation = Mtm.Txn.Async }
               pmem)))

(* ------------------------------------------------------------------ *)
(* Lock table: striding, re-entrancy, release/version protocol *)

let prop_lock_striding =
  QCheck.Test.make ~name:"lock striding: 64-byte lines, 2^24-byte aliasing"
    ~count:200
    QCheck.(int_bound 0x0FFF_FFFF)
    (fun addr ->
      let t = Mtm.Lock_table.create () in
      (* default bits = 18 *)
      let idx = Mtm.Lock_table.index_of t addr in
      let line = addr land lnot 63 in
      (* every byte of the 64-byte line shares the lock *)
      List.for_all
        (fun j -> Mtm.Lock_table.index_of t (line + j) = idx)
        [ 0; 1; 7; 8; 63 ]
      (* the table wraps: addresses 2^18 lines (= 2^24 bytes) apart
         alias to the same entry, so false conflicts at that stride are
         by design *)
      && Mtm.Lock_table.index_of t (addr + (1 lsl 24)) = idx
      (* adjacent lines take adjacent entries (range striding, not
         hashing): a contiguous write set occupies contiguous locks *)
      && Mtm.Lock_table.index_of t (line + 64)
         = (idx + 1) land (Mtm.Lock_table.entries t - 1))

let prop_lock_acquire_reentrant =
  QCheck.Test.make ~name:"try_acquire: re-entrant for the owner, exclusive"
    ~count:200
    QCheck.(pair (int_bound 1000) (pair (int_bound 6) (int_bound 6)))
    (fun (idx, (o1, o2)) ->
      QCheck.assume (o1 <> o2);
      let t = Mtm.Lock_table.create ~bits:10 () in
      let open Mtm.Lock_table in
      let addr = 64 * idx in
      try_acquire t idx ~owner:o1 ~addr
      && try_acquire t idx ~owner:o1 ~addr (* re-entrant *)
      && (not (try_acquire t idx ~owner:o2 ~addr))
      && owner t idx = o1
      &&
      (release t idx;
       owner t idx = -1 && try_acquire t idx ~owner:o2 ~addr))

let prop_lock_release_versioned =
  QCheck.Test.make
    ~name:"release_versioned publishes; abort release preserves" ~count:200
    QCheck.(pair (int_bound 1000) (pair (int_bound 10_000) (int_bound 10_000)))
    (fun (idx, (v1, v2)) ->
      let t = Mtm.Lock_table.create ~bits:10 () in
      let open Mtm.Lock_table in
      (* commit: the new version becomes visible exactly at release *)
      ignore (try_acquire t idx ~owner:0 ~addr:(64 * idx));
      let before = version t idx in
      let mid = version t idx = before in
      release_versioned t idx ~version:v1;
      let committed = version t idx = v1 && owner t idx = -1 in
      (* abort: lock released, version untouched — concurrent readers
         that validated against v1 stay valid *)
      ignore (try_acquire t idx ~owner:1 ~addr:(64 * idx));
      release t idx;
      mid && committed && version t idx = v1 && owner t idx = -1
      && (ignore v2; true))

(* ------------------------------------------------------------------ *)
(* Timestamp: the 62-bit ceiling and leased allocation *)

(* An env that charges no simulated time: the timestamp tests exercise
   arithmetic, not latency. *)
let null_env () =
  let m = Scm.Env.make_machine ~seed:1 ~nframes:64 () in
  Scm.Env.view m ~delay:(fun _ -> ()) ~now:(fun () -> 0)

(* Redo-record headers carry the commit timestamp in 62 usable bits
   (the torn-bit log steals one, the OCaml int sign another).  Crossing
   that ceiling would silently wrap and reorder recovery replay, so the
   counter must fail loudly instead — on the shared bump, on a lease
   refill, and on recovery's advance. *)
let test_timestamp_ceiling () =
  let env = null_env () in
  Alcotest.(check int)
    "ceiling is 2^62 - 1"
    ((1 lsl 62) - 1)
    Mtm.Timestamp.max_cts;
  let ts = Mtm.Timestamp.create () in
  Mtm.Timestamp.advance_to ts (Mtm.Timestamp.max_cts - 1);
  Alcotest.(check int) "the last timestamp is issuable" Mtm.Timestamp.max_cts
    (Mtm.Timestamp.next ts env);
  Alcotest.check_raises "the bump past the ceiling fails loudly"
    Mtm.Timestamp.Exhausted (fun () -> ignore (Mtm.Timestamp.next ts env));
  Alcotest.check_raises "recovery advance past the ceiling fails loudly"
    Mtm.Timestamp.Exhausted (fun () ->
      Mtm.Timestamp.advance_to ts (Mtm.Timestamp.max_cts + 1));
  (* a lease refill reserves a whole block up front: it must refuse to
     reserve values it could never issue *)
  let ts' = Mtm.Timestamp.create () in
  Mtm.Timestamp.advance_to ts' (Mtm.Timestamp.max_cts - 2);
  let l = Mtm.Timestamp.lease_create () in
  Alcotest.check_raises "lease refill past the ceiling fails loudly"
    Mtm.Timestamp.Exhausted (fun () ->
      ignore (Mtm.Timestamp.draw ts' env l ~size:8 ~floor:0))

(* The leased allocator's contract: every draw is globally unique
   (disjoint leases), strictly above the caller's floor, and never
   ahead of [now] — the invariants the recovery ordering and the
   read-validation argument stand on. *)
let prop_lease_draws_unique_above_floor =
  QCheck.Test.make ~name:"leased draws: unique, above floor, bounded by now"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair bool (int_bound 200)))
    (fun ops ->
      let env = null_env () in
      let ts = Mtm.Timestamp.create () in
      let la = Mtm.Timestamp.lease_create () in
      let lb = Mtm.Timestamp.lease_create () in
      let seen = Hashtbl.create 64 in
      List.for_all
        (fun (which, floor) ->
          let l = if which then la else lb in
          let c = Mtm.Timestamp.draw ts env l ~size:4 ~floor in
          let fresh = not (Hashtbl.mem seen c) in
          Hashtbl.replace seen c ();
          fresh && c > floor && c <= Mtm.Timestamp.now ts)
        ops)

(* ------------------------------------------------------------------ *)
(* Striped lock table geometry, and false-conflict attribution *)

let prop_lock_striping_geometry =
  QCheck.Test.make
    ~name:"striping: capacity multiplies, adjacent lines change stripe"
    ~count:200
    QCheck.(pair (int_bound 3) (int_bound 0x0FFF_FFFF))
    (fun (sbits, addr) ->
      let stripes = 1 lsl sbits in
      let t = Mtm.Lock_table.create ~bits:6 ~stripes () in
      let entries = Mtm.Lock_table.entries t in
      let h = Mtm.Lock_table.index_of t addr in
      let line = addr lsr 6 in
      (* striping multiplies the table instead of splitting it, so the
         aliasing stride grows with the stripe count *)
      entries = stripes * 64
      && Mtm.Lock_table.stripes t = stripes
      (* the handle is the line number modulo the enlarged table: one
         stripe is bit-for-bit the historical flat table, and distinct
         lines below the table size never alias *)
      && h = line land (entries - 1)
      (* the low handle bits select the stripe, so adjacent lines land
         on different stripe arrays and a contiguous write set spreads
         its lock metadata instead of queueing on one array *)
      && (stripes = 1
         || Mtm.Lock_table.index_of t (addr + 64) land (stripes - 1)
            <> h land (stripes - 1))
      (* every byte of a 64-byte line still shares one lock *)
      && Mtm.Lock_table.index_of t ((line * 64) + 63) = h)

(* The aliasing counter separates data conflicts from table-geometry
   conflicts: contention on one word is a real conflict and must not
   count, while contention between disjoint words that wrap onto the
   same entry must. *)
let test_false_conflict_counter () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      (* 2^4 entries: the table wraps every 16 lines = 1024 bytes *)
      let cfg = { small_cfg with lock_bits = 4 } in
      let pool = pool_of ~config:cfg pmem in
      let data = data_region pmem 65536 in
      let fc =
        Obs.Metrics.counter (Mtm.Txn.obs pool).Obs.metrics
          "mtm.lock.false_conflicts"
      in
      let sim = Sim.create () in
      for i = 0 to 1 do
        Sim.spawn sim (fun () ->
            let th = Mtm.Txn.thread pool i (sim_env sim m) in
            for _ = 1 to 20 do
              Mtm.Txn.run th (fun tx ->
                  let v = Mtm.Txn.load tx data in
                  Sim.delay sim 500;
                  Mtm.Txn.store tx data (Int64.add v 1L))
            done)
      done;
      Sim.run sim;
      Alcotest.(check bool) "same-word contention aborted" true
        ((Mtm.Txn.stats pool).aborts > 0);
      Alcotest.(check int) "a real conflict is not a false conflict" 0
        (Obs.Metrics.counter_value fc);
      let sim = Sim.create () in
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 2 (sim_env sim m) in
          for _ = 1 to 20 do
            Mtm.Txn.run th (fun tx ->
                Mtm.Txn.store tx data 1L;
                (* hold the entry while the aliased writer arrives *)
                Sim.delay sim 2_000)
          done);
      Sim.spawn sim (fun () ->
          Sim.delay sim 700;
          let th = Mtm.Txn.thread pool 3 (sim_env sim m) in
          for _ = 1 to 20 do
            (try Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx (data + 1024) 2L)
             with Mtm.Txn.Contention -> ());
            Sim.delay sim 300
          done);
      Sim.run sim;
      Alcotest.(check bool) "wrap aliasing attributed as false conflicts" true
        (Obs.Metrics.counter_value fc > 0))

(* ------------------------------------------------------------------ *)
(* Scalable commit end to end: leases + stripes + group commit survive
   a crash with deferred truncations pending *)

let test_scalable_commit_recovery () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let cfg =
        { small_cfg with ts_lease = 4; lock_stripes = 4; group_commit = true }
      in
      let pool = pool_of ~config:cfg pmem in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      for i = 0 to 3 do
        Sim.spawn sim (fun () ->
            let th = Mtm.Txn.thread pool i (sim_env sim m) in
            for _ = 1 to 25 do
              Mtm.Txn.run th (fun tx ->
                  let v = Mtm.Txn.load tx data in
                  Mtm.Txn.store tx data (Int64.add v 1L))
            done)
      done;
      Sim.run sim;
      Alcotest.(check int64) "no lost updates" 100L
        (Region.Pmem.load (Region.Pmem.default_view pmem) data);
      (* crash with group commit's deferred truncations still pending:
         the logs hold committed redo whose write-back never ran *)
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_apply_all }
        m;
      let _, pmem' = reboot m dir in
      let pool' = pool_of ~config:cfg pmem' in
      Alcotest.(check bool) "commits replayed from the logs" true
        (Mtm.Txn.recovered_txns pool' > 0);
      (* leased timestamps land in the per-thread logs out of arrival
         order; cts-sorted replay must reconstruct the serial order,
         and a counter pins it: replaying any commit out of place
         leaves a value other than the last one *)
      Alcotest.(check int64) "recovered exactly" 100L
        (Region.Pmem.load (Region.Pmem.default_view pmem') data))

(* ------------------------------------------------------------------ *)
(* Pipelined commit *)

let pipeline_cfg =
  {
    small_cfg with
    ts_lease = 4;
    lock_stripes = 4;
    group_commit = true;
    pipeline = true;
    cm = Mtm.Txn.Cm_adaptive;
  }

(* The new window the pipeline opens: locks release at the durability
   fence, before the data write-back runs.  A reader acquiring the line
   inside that window must observe the committed value — it is visible
   through the cache — at the bumped version (the read validates and
   commits without an abort).  No drainer daemon is installed, so the
   writer's record provably still awaits write-back when the reader
   runs. *)
let test_pipeline_read_before_write_back () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of ~config:pipeline_cfg pmem in
      let data = data_region pmem 4096 in
      let pending_at_read = ref (-1) in
      let got = ref 0L in
      let writer = ref None in
      let sim = Sim.create () in
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 0 (sim_env sim m) in
          Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx data 42L);
          (* committed and durable; write-back queued, not run *)
          Alcotest.(check int) "write-back deferred past commit" 1
            (Mtm.Txn.pending_truncations th);
          writer := Some th);
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 1 (sim_env sim m) in
          (* wait for the commit — the locks are released the moment it
             returns, its write-back still queued *)
          while !writer = None do
            Sim.delay sim 500
          done;
          (match !writer with
          | Some wr -> pending_at_read := Mtm.Txn.pending_truncations wr
          | None -> ());
          got := Mtm.Txn.run th (fun tx -> Mtm.Txn.load tx data));
      Sim.run sim;
      Alcotest.(check int) "writer's write-back still pending at the read" 1
        !pending_at_read;
      Alcotest.(check int64) "reader saw the committed value" 42L !got;
      Alcotest.(check int) "no aborts: version bumped at lock release" 0
        (Mtm.Txn.stats pool).aborts)

(* Crash between the durability fence and the deferred write-back: the
   cached new values die with the crash (dropped dirty lines), but the
   records are durable in the logs and recovery replays them.  25
   commits per thread against an 8-deep window leaves each thread's
   last record genuinely unretired at the end. *)
let test_pipeline_crash_before_write_back () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of ~config:pipeline_cfg pmem in
      let data = data_region pmem 4096 in
      let workers = ref [] in
      let sim = Sim.create () in
      for i = 0 to 3 do
        Sim.spawn sim (fun () ->
            let th = Mtm.Txn.thread pool i (sim_env sim m) in
            workers := th :: !workers;
            for _ = 1 to 25 do
              Mtm.Txn.run th (fun tx ->
                  let v = Mtm.Txn.load tx data in
                  Mtm.Txn.store tx data (Int64.add v 1L))
            done)
      done;
      Sim.run sim;
      Alcotest.(check int64) "no lost updates" 100L
        (Region.Pmem.load (Region.Pmem.default_view pmem) data);
      let pending =
        List.fold_left
          (fun acc th -> acc + Mtm.Txn.pending_truncations th)
          0 !workers
      in
      Alcotest.(check bool) "commits durable-in-log, write-back pending" true
        (pending > 0);
      (* drop the dirty cache lines: the committed values survive only
         as redo records in the logs *)
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_apply_all }
        m;
      let _, pmem' = reboot m dir in
      let pool' = pool_of ~config:pipeline_cfg pmem' in
      Alcotest.(check bool) "unretired records replayed" true
        (Mtm.Txn.recovered_txns pool' > 0);
      Alcotest.(check int64) "recovered exactly" 100L
        (Region.Pmem.load (Region.Pmem.default_view pmem') data))

(* A producer blocked by a full in-flight window parks until the
   drainer's sweep pops its queue and resumes at that instant — not on
   the next tick of a poll.  The daemon takes an odd 1001 ns before each
   sweep, so a poll interval would almost surely overshoot the pop. *)
let test_pipeline_backpressure_resumes_at_pop () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let config = { pipeline_cfg with nthreads = 1; pipe_window = 1 } in
      let pool = pool_of ~config pmem in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      let pop_at = ref (-1) and pushed_at = ref (-1) in
      let returned_at = ref (-1) in
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 0 (sim_env sim m) in
          let dview = Region.Pmem.view pmem (sim_env sim m) in
          let svc =
            Sim.Service.spawn sim ~work:(fun () ->
                if Mtm.Txn.pending_truncations th = 0 then false
                else begin
                  Sim.delay sim 1_001;
                  pop_at := Sim.now sim;
                  Mtm.Txn.drain_pipeline pool dview
                end)
          in
          Mtm.Txn.set_drain_wake pool
            (Some
               (fun _ ->
                 if !pushed_at < 0 then pushed_at := Sim.now sim;
                 Sim.Service.wake svc));
          Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx data 7L);
          returned_at := Sim.now sim;
          Sim.Service.stop svc);
      Sim.run sim;
      Alcotest.(check bool) "the producer waited for the sweep" true
        (!pop_at > !pushed_at && !pushed_at >= 0);
      Alcotest.(check int) "resumed at the drainer's pop" !pop_at !returned_at)

(* Wait-die: an older transaction that meets a younger owner parks on
   the lock and resumes the moment the owner's commit releases it (then
   re-runs the access), instead of polling on an 80 ns tick. *)
let test_wait_die_resumes_at_release () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let config = { small_cfg with cm = Mtm.Txn.Cm_adaptive } in
      let pool = pool_of ~config pmem in
      let data = data_region pmem 4096 in
      (* fault the page in now: the owner's commit must fit the wait *)
      ignore (Region.Pmem.load (Region.Pmem.default_view pmem) data);
      let sim = Sim.create () in
      let released_at = ref (-1) and stored_at = ref (-1) in
      (* binding a slot reads its log; both start from one instant *)
      let start = 1_000_000 in
      Sim.spawn sim (fun () ->
          (* older: its [run] starts first *)
          let th = Mtm.Txn.thread pool 0 (sim_env sim m) in
          Sim.delay sim (start - Sim.now sim);
          Mtm.Txn.run th (fun tx ->
              Sim.delay sim 200;
              Mtm.Txn.store tx data 1L;
              stored_at := Sim.now sim));
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 1 (sim_env sim m) in
          Sim.delay sim (start + 10 - Sim.now sim);
          Mtm.Txn.run th (fun tx ->
              Mtm.Txn.store tx data 2L;
              Sim.delay sim 50);
          released_at := Sim.now sim);
      Sim.run sim;
      let st = Mtm.Txn.stats pool in
      Alcotest.(check int) "the older transaction waited" 1
        (Mtm.Txn.cm_waits pool);
      Alcotest.(check int) "nobody aborted" 0 st.Mtm.Txn.aborts;
      (* the retried store charges one access after the wake-up *)
      Alcotest.(check int) "resumed at the owner's release"
        (!released_at + m.Scm.Env.latency.Scm.Latency_model.stm_access_ns)
        !stored_at;
      Alcotest.(check int64) "the older writer committed last" 1L
        (Region.Pmem.load (Region.Pmem.default_view pmem) data))

(* ------------------------------------------------------------------ *)
(* Abort-path interleavings: the satellite audits of the schedule-
   exploration PR, pinned as deterministic sim tests *)

(* Abort releases write locks without bumping versions.  Under eager
   undo the aborting writer has dirty values sitting in memory until
   rollback; a concurrent reader must never return one.  (Safe because
   [load] delays before reading and re-checks the owner after: a lock
   held at any point in that window aborts the read.) *)
let test_undo_abort_no_dirty_read () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of ~config:undo_cfg pmem in
      let data = data_region pmem 4096 in
      let v = Region.Pmem.default_view pmem in
      Region.Pmem.wtstore v data 100L;
      Region.Pmem.fence v;
      let sim = Sim.create () in
      let observed = ref [] in
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 0 (sim_env sim m) in
          for _ = 1 to 10 do
            (try
               Mtm.Txn.run th (fun tx ->
                   Mtm.Txn.store tx data 200L;
                   (* dirty value is in place; dawdle, then abort *)
                   Sim.delay sim 3_000;
                   failwith "abort")
             with Failure _ -> ());
            Sim.delay sim 500
          done);
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 1 (sim_env sim m) in
          for _ = 1 to 40 do
            observed :=
              Mtm.Txn.run th (fun tx -> Mtm.Txn.load tx data) :: !observed;
            Sim.delay sim 700
          done);
      Sim.run sim;
      Alcotest.(check int) "reader observations" 40 (List.length !observed);
      List.iter
        (fun x ->
          if x <> 100L then
            Alcotest.failf "reader saw dirty/aborted value %Ld" x)
        !observed;
      Alcotest.(check int64) "rollbacks all landed" 100L
        (Region.Pmem.load v data))

(* The abort release must actually free the lock: a second writer
   contending with a serial aborter makes progress and wins. *)
let test_abort_releases_locks () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 0 (sim_env sim m) in
          try
            Mtm.Txn.run th (fun tx ->
                Mtm.Txn.store tx data 1L;
                Sim.delay sim 5_000;
                failwith "abort")
          with Failure _ -> ());
      Sim.spawn sim (fun () ->
          Sim.delay sim 100;
          let th = Mtm.Txn.thread pool 1 (sim_env sim m) in
          Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx data 2L));
      Sim.run sim;
      let v = Region.Pmem.default_view pmem in
      Alcotest.(check int64) "second writer won through" 2L
        (Region.Pmem.load v data);
      Alcotest.(check int) "exactly the second committed" 1
        (Mtm.Txn.stats pool).commits)

(* The extend path: a read that finds a version newer than [rv] must
   revalidate and extend rather than abort, and the value returned must
   be the newly committed one (never a mix). *)
let test_read_extends_past_concurrent_commit () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let got = ref (0L, 0L) in
      let sim = Sim.create () in
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 0 (sim_env sim m) in
          got :=
            Mtm.Txn.run th (fun tx ->
                let a = Mtm.Txn.load tx data in
                (* writer commits (data + 512) here, at a timestamp
                   past this transaction's rv *)
                Sim.delay sim 10_000;
                (a, Mtm.Txn.load tx (data + 512))));
      Sim.spawn sim (fun () ->
          Sim.delay sim 2_000;
          let th = Mtm.Txn.thread pool 1 (sim_env sim m) in
          Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx (data + 512) 9L));
      Sim.run sim;
      Alcotest.(check (pair int64 int64))
        "snapshot extended to the new commit" (0L, 9L) !got;
      Alcotest.(check int) "no aborts needed" 0 (Mtm.Txn.stats pool).aborts)

(* ------------------------------------------------------------------ *)
(* Allocation budget *)

(* Regression guard for the allocation-free commit pipeline: a
   steady-state 8-write commit must stay under a fixed minor-word
   budget.  The reusable write-set, preallocated encode buffer and
   Bytes-staged log append put the measured cost around 240 minor
   words/commit; the budget leaves ~2x headroom for runtime-to-runtime
   variation while still catching any reintroduction of per-commit
   Hashtbl/list/closure churn (which costs thousands). *)
let test_commit_allocation_budget () =
  with_tmpdir (fun dir ->
      let _, pmem = stack dir in
      let pool = pool_of pmem in
      let data = data_region pmem 4096 in
      let th = Mtm.Txn.thread pool 0 (Region.Pmem.default_view pmem).env in
      let iter i =
        Mtm.Txn.run th (fun tx ->
            for j = 0 to 7 do
              Mtm.Txn.store tx
                (data + (8 * ((i + (j * 17)) land 255)))
                (Int64.of_int (i + j))
            done)
      in
      (* warm up: grow the write-set, log and heap to steady state *)
      for i = 0 to 199 do
        iter i
      done;
      let n = 500 in
      let m0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        iter i
      done;
      let per_commit = (Gc.minor_words () -. m0) /. float_of_int n in
      if per_commit >= 512. then
        Alcotest.failf
          "steady-state commit allocates %.0f minor words (budget 512)"
          per_commit)

let () =
  Alcotest.run "mtm"
    [
      ( "basics",
        [
          Alcotest.test_case "commit visible and durable" `Quick
            test_commit_visible_and_durable;
          Alcotest.test_case "user exception aborts" `Quick
            test_user_exception_aborts;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "read your writes, lazy versioning" `Quick
            test_read_your_writes_and_lazy_versioning;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "nested flattening" `Quick test_nested_flattening;
          Alcotest.test_case "commit allocation budget" `Quick
            test_commit_allocation_budget;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "uncommitted never applied" `Quick
            test_uncommitted_never_applied_committed_replayed;
          Alcotest.test_case "recovery orders across threads" `Quick
            test_recovery_orders_across_threads;
          Alcotest.test_case "crash stress all-or-nothing" `Slow
            test_crash_stress_all_or_nothing;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "alloc commits with txn" `Quick
            test_alloc_commits_with_txn;
          Alcotest.test_case "alloc aborts with txn" `Quick
            test_alloc_aborts_with_txn;
          Alcotest.test_case "free in txn" `Quick test_free_in_txn;
          Alcotest.test_case "large alloc in txn" `Quick
            test_large_alloc_in_txn;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "counter increments" `Quick
            test_concurrent_counter_increments;
          Alcotest.test_case "disjoint scale" `Quick
            test_concurrent_disjoint_scale;
          Alcotest.test_case "isolation no dirty reads" `Quick
            test_isolation_no_dirty_reads;
          Alcotest.test_case "contention exception" `Quick
            test_contention_exception;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "async daemon truncates" `Quick
            test_async_daemon_truncates;
          Alcotest.test_case "log full blocks until truncated" `Quick
            test_log_full_blocks_until_truncated;
        ] );
      ( "undo",
        [
          Alcotest.test_case "commit and abort" `Quick
            test_undo_commit_and_abort;
          Alcotest.test_case "crash mid-txn rolls back" `Quick
            test_undo_crash_mid_txn_rolls_back;
          Alcotest.test_case "alloc abort no leak" `Quick
            test_undo_alloc_abort_no_leak;
          Alcotest.test_case "concurrent counter" `Quick
            test_undo_concurrent_counter;
          Alcotest.test_case "rejects async" `Quick test_undo_rejects_async;
        ] );
      ( "lock table",
        [
          QCheck_alcotest.to_alcotest prop_lock_striding;
          QCheck_alcotest.to_alcotest prop_lock_acquire_reentrant;
          QCheck_alcotest.to_alcotest prop_lock_release_versioned;
          QCheck_alcotest.to_alcotest prop_lock_striping_geometry;
          Alcotest.test_case "false conflict counter" `Quick
            test_false_conflict_counter;
        ] );
      ( "timestamp",
        [
          Alcotest.test_case "ceiling fails loudly" `Quick
            test_timestamp_ceiling;
          QCheck_alcotest.to_alcotest prop_lease_draws_unique_above_floor;
        ] );
      ( "scalable commit",
        [
          Alcotest.test_case "recovery with leases and group commit" `Quick
            test_scalable_commit_recovery;
        ] );
      ( "pipelined commit",
        [
          Alcotest.test_case "read before write-back sees committed value"
            `Quick test_pipeline_read_before_write_back;
          Alcotest.test_case "crash between fence and write-back recovers"
            `Quick test_pipeline_crash_before_write_back;
          Alcotest.test_case "backpressure resumes at the drainer's pop"
            `Quick test_pipeline_backpressure_resumes_at_pop;
          Alcotest.test_case "wait-die waiter resumes at the release" `Quick
            test_wait_die_resumes_at_release;
        ] );
      ( "abort interleavings",
        [
          Alcotest.test_case "undo abort: no dirty read" `Quick
            test_undo_abort_no_dirty_read;
          Alcotest.test_case "abort releases locks" `Quick
            test_abort_releases_locks;
          Alcotest.test_case "read extends past concurrent commit" `Quick
            test_read_extends_past_concurrent_commit;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_sequential_txns_match_model ] );
    ]
