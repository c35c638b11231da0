(* Tests for the persistent heap: the allocation log, Hoard superblocks,
   the large-object allocator and the pmalloc/pfree facade — including
   crash-recovery and allocate-in-one-run/free-in-the-next. *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemoheap" "" in
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

let stack ?(nframes = 2048) ?(seed = 9) dir =
  let m = Scm.Env.make_machine ~seed ~nframes () in
  let backing = Region.Backing_store.open_dir dir in
  let t = Region.Pmem.open_instance m backing in
  (m, Region.Pmem.default_view t)

let reboot (m : Scm.Env.machine) dir =
  let m' = Scm.Env.machine_of_device m.dev in
  let backing = Region.Backing_store.open_dir dir in
  let t = Region.Pmem.open_instance m' backing in
  (m', Region.Pmem.default_view t)

let make_heap ?(superblocks = 8) ?(large_bytes = 65536) v =
  let base =
    Region.Pmem.pmap v (Pmheap.Heap.region_bytes_for ~superblocks ~large_bytes)
  in
  (base, Pmheap.Heap.create v ~base ~superblocks ~large_bytes)

(* ------------------------------------------------------------------ *)
(* Alloc log *)

let test_alloc_log_commit_applies () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let data = Region.Pmem.pmap v 4096 in
      let lbase = Region.Pmem.pmap v Pmheap.Alloc_log.region_bytes in
      let alog = Pmheap.Alloc_log.create v ~base:lbase in
      Pmheap.Alloc_log.commit alog [ (data, 1L); (data + 8, 2L) ];
      Alcotest.(check int64) "w0" 1L (Region.Pmem.load v data);
      Alcotest.(check int64) "w1" 2L (Region.Pmem.load v (data + 8)))

let test_alloc_log_replays_unapplied_record () =
  with_tmpdir (fun dir ->
      (* Craft a "crashed between log flush and data write" state by
         appending a record through the raw RAWL interface, then verify
         Alloc_log.attach replays it. *)
      let m, v = stack dir in
      let data = Region.Pmem.pmap v 4096 in
      let lbase = Region.Pmem.pmap v Pmheap.Alloc_log.region_bytes in
      ignore (Pmheap.Alloc_log.create v ~base:lbase);
      let raw, _ = Pmlog.Rawl.attach v ~base:lbase in
      (match
         Pmlog.Rawl.append raw
           [| 1L; Int64.of_int (data + 16); 77L |]
       with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "Full");
      Pmlog.Rawl.flush raw;
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let _, replayed = Pmheap.Alloc_log.attach v' ~base:lbase in
      Alcotest.(check int) "one record replayed" 1 replayed;
      Alcotest.(check int64) "write redone" 77L
        (Region.Pmem.load v' (data + 16)))

(* ------------------------------------------------------------------ *)
(* Heap basics *)

let test_pmalloc_sets_slot () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, heap = make_heap v in
      let slot = Region.Pstatic.get v "p" 8 in
      let addr = Pmheap.Heap.pmalloc heap 100 ~slot in
      Alcotest.(check int64) "slot holds the block" (Int64.of_int addr)
        (Region.Pmem.load v slot);
      Alcotest.(check int) "class rounding" 128
        (Pmheap.Heap.block_bytes heap addr);
      Pmheap.Heap.pfree heap ~slot;
      Alcotest.(check int64) "slot nullified" 0L (Region.Pmem.load v slot))

let test_distinct_blocks () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, heap = make_heap v in
      let addrs = List.init 200 (fun _ -> Pmheap.Heap.pmalloc_raw heap 64) in
      Alcotest.(check int) "all distinct" 200
        (List.length (List.sort_uniq compare addrs));
      List.iter
        (fun a ->
          Alcotest.(check bool) "8-aligned" true (a land 7 = 0);
          (* blocks must not overlap: spacing is at least the class *)
          ())
        addrs)

let test_double_free_detected () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, heap = make_heap v in
      let a = Pmheap.Heap.pmalloc_raw heap 32 in
      Pmheap.Heap.pfree_raw heap a;
      Alcotest.check_raises "double free"
        (Invalid_argument "Hoard: address in unassigned superblock")
        (fun () -> Pmheap.Heap.pfree_raw heap a);
      (* with another block keeping the superblock live, the bitmap
         check fires instead *)
      let b = Pmheap.Heap.pmalloc_raw heap 32 in
      let c = Pmheap.Heap.pmalloc_raw heap 32 in
      Pmheap.Heap.pfree_raw heap b;
      Alcotest.check_raises "double free with live superblock"
        (Invalid_argument "Hoard.free: block is not allocated (double free?)")
        (fun () -> Pmheap.Heap.pfree_raw heap b);
      Pmheap.Heap.pfree_raw heap c)

let test_size_class_reuse () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, heap = make_heap ~superblocks:2 v in
      (* Fill a superblock with one class, free everything, then reuse
         the same superblock for a different class. *)
      let small = List.init 100 (fun _ -> Pmheap.Heap.pmalloc_raw heap 8) in
      List.iter (Pmheap.Heap.pfree_raw heap) small;
      let big = List.init 30 (fun _ -> Pmheap.Heap.pmalloc_raw heap 256) in
      Alcotest.(check int) "streams allocated" 30 (List.length big);
      List.iter (Pmheap.Heap.pfree_raw heap) big)

let test_large_alloc_and_coalesce () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, heap = make_heap ~large_bytes:65536 v in
      let a = Pmheap.Heap.pmalloc_raw heap 10_000 in
      let b = Pmheap.Heap.pmalloc_raw heap 10_000 in
      let c = Pmheap.Heap.pmalloc_raw heap 10_000 in
      Alcotest.(check bool) "usable size" true
        (Pmheap.Heap.block_bytes heap a >= 10_000);
      (* free middle, then sides: coalescing must let a 30k block fit *)
      Pmheap.Heap.pfree_raw heap b;
      Pmheap.Heap.pfree_raw heap a;
      Pmheap.Heap.pfree_raw heap c;
      let d = Pmheap.Heap.pmalloc_raw heap 30_000 in
      Pmheap.Heap.pfree_raw heap d)

let test_exhaustion_raises () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, heap = make_heap ~superblocks:1 ~large_bytes:4096 v in
      Alcotest.check_raises "large area exhausted"
        (Failure "Large_alloc.alloc: no chunk large enough") (fun () ->
          ignore (Pmheap.Heap.pmalloc_raw heap 8192)))

(* ------------------------------------------------------------------ *)
(* Reincarnation *)

let test_alloc_in_one_run_free_in_next () =
  with_tmpdir (fun dir ->
      let base, slot, addr, m =
        let m, v = stack dir in
        let base, heap = make_heap v in
        let slot = Region.Pstatic.get v "node" 8 in
        let addr = Pmheap.Heap.pmalloc heap 500 ~slot in
        (* write data into the block, durably *)
        Region.Pmem.wtstore v addr 321L;
        Region.Pmem.fence v;
        (base, slot, addr, m)
      in
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let heap' = Pmheap.Heap.attach v' ~base in
      let stats = Pmheap.Heap.reincarnation heap' in
      Alcotest.(check int) "superblocks scavenged" 8 stats.superblocks_scanned;
      Alcotest.(check bool) "scavenge cost modeled" true
        (stats.scavenge_ns > 0);
      Alcotest.(check int64) "slot survived" (Int64.of_int addr)
        (Region.Pmem.load v' slot);
      Alcotest.(check int64) "data survived" 321L (Region.Pmem.load v' addr);
      (* the block is still accounted allocated: a new allocation cannot
         return it *)
      let fresh = Pmheap.Heap.pmalloc_raw heap' 500 in
      Alcotest.(check bool) "no reuse of live block" true (fresh <> addr);
      (* free-in-the-next-invocation *)
      Pmheap.Heap.pfree heap' ~slot;
      Alcotest.(check int64) "slot cleared" 0L (Region.Pmem.load v' slot))

let test_large_survives_reboot () =
  with_tmpdir (fun dir ->
      let base, addr, m =
        let m, v = stack dir in
        let base, heap = make_heap v in
        let addr = Pmheap.Heap.pmalloc_raw heap 20_000 in
        Region.Pmem.wtstore v (addr + 8000) 5L;
        Region.Pmem.fence v;
        (base, addr, m)
      in
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let heap' = Pmheap.Heap.attach v' ~base in
      Alcotest.(check bool) "size survives" true
        (Pmheap.Heap.block_bytes heap' addr >= 20_000);
      Alcotest.(check int64) "data survives" 5L
        (Region.Pmem.load v' (addr + 8000));
      Pmheap.Heap.pfree_raw heap' addr)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_heap_no_overlap =
  QCheck.Test.make ~name:"live blocks never overlap, sizes honored"
    ~count:30
    QCheck.(
      list_of_size Gen.(5 -- 60)
        (pair bool (int_range 1 12_000)))
    (fun ops ->
      with_tmpdir (fun dir ->
          let _, v = stack dir in
          let _, heap = make_heap ~superblocks:16 ~large_bytes:262144 v in
          let live = ref [] in
          List.iter
            (fun (is_free, size) ->
              if is_free && !live <> [] then begin
                let addr, _ = List.hd !live in
                Pmheap.Heap.pfree_raw heap addr;
                live := List.tl !live
              end
              else
                match Pmheap.Heap.pmalloc_raw heap size with
                | addr -> live := (addr, size) :: !live
                | exception Failure _ -> ())
            ops;
          (* usable size covers the request *)
          List.for_all
            (fun (addr, size) -> Pmheap.Heap.block_bytes heap addr >= size)
            !live
          &&
          (* no two live blocks overlap *)
          let sorted =
            List.sort compare
              (List.map
                 (fun (a, _) -> (a, a + Pmheap.Heap.block_bytes heap a))
                 !live)
          in
          let rec disjoint = function
            | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && disjoint rest
            | _ -> true
          in
          disjoint sorted))

let prop_heap_survives_crash_after_every_op =
  QCheck.Test.make ~name:"heap attach succeeds after crash at any op count"
    ~count:20
    QCheck.(pair (int_bound 1000) (int_range 1 25))
    (fun (seed, nops) ->
      with_tmpdir (fun dir ->
          let m, v = stack ~seed dir in
          let base, heap = make_heap v in
          let slot = Region.Pstatic.get v "s" 8 in
          let rng = Random.State.make [| seed |] in
          for _ = 1 to nops do
            if Random.State.bool rng then begin
              if Region.Pmem.load v slot <> 0L then
                Pmheap.Heap.pfree heap ~slot
            end
            else if Region.Pmem.load v slot = 0L then
              ignore
                (Pmheap.Heap.pmalloc heap
                   (1 + Random.State.int rng 6000)
                   ~slot)
          done;
          Scm.Crash.inject m;
          let _, v' = reboot m dir in
          let heap' = Pmheap.Heap.attach v' ~base in
          (* the slot is consistent: either null or a live block whose
             size is queryable *)
          match Int64.to_int (Region.Pmem.load v' slot) with
          | 0 -> true
          | addr -> Pmheap.Heap.block_bytes heap' addr > 0))

(* ------------------------------------------------------------------ *)
(* The heap's lock *)

(* Two fibers share one heap.  The first holds the lock across a
   transactional read inside [free_prepare_small] that takes simulated
   time (here its [load] callback); the second's [pmalloc_raw] parks
   until the first returns — or raises, which must release the lock as
   well.  The main view's clock is not the simulator's, so the second
   fiber's allocation itself costs no simulated time. *)
let run_lock_race ~load =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, heap = make_heap v in
      let blk = Pmheap.Heap.pmalloc_raw heap 64 in
      let sim = Sim.create () in
      let first_done = ref (-1) and second_done = ref (-1) in
      Sim.spawn sim (fun () ->
          (try
             ignore
               (Pmheap.Heap.free_prepare_small heap blk ~load:(fun a ->
                    Sim.delay sim 1_000;
                    load a;
                    Region.Pmem.load v a))
           with Exit -> ());
          first_done := Sim.now sim);
      Sim.spawn sim (fun () ->
          ignore (Pmheap.Heap.pmalloc_raw heap 64);
          second_done := Sim.now sim);
      Sim.run sim;
      (* allocate again, outside any fiber: a free lock is taken
         without the simulator *)
      ignore (Pmheap.Heap.pmalloc_raw heap 64);
      (!first_done, !second_done))

let test_heap_lock_holds_off_second_fiber () =
  let first, second = run_lock_race ~load:ignore in
  Alcotest.(check bool) "the holder parked inside the lock" true
    (first >= 1_000);
  Alcotest.(check int) "the allocation waited for the holder's return"
    first second

let test_heap_lock_released_on_exception () =
  let first, second = run_lock_race ~load:(fun _ -> raise Exit) in
  Alcotest.(check int) "the holder raised after its delay" 1_000 first;
  Alcotest.(check int) "the allocation ran when the holder raised" first
    second

let () =
  Alcotest.run "heap"
    [
      ( "alloc-log",
        [
          Alcotest.test_case "commit applies" `Quick
            test_alloc_log_commit_applies;
          Alcotest.test_case "replays unapplied record" `Quick
            test_alloc_log_replays_unapplied_record;
        ] );
      ( "hoard",
        [
          Alcotest.test_case "pmalloc sets slot" `Quick test_pmalloc_sets_slot;
          Alcotest.test_case "distinct blocks" `Quick test_distinct_blocks;
          Alcotest.test_case "double free detected" `Quick
            test_double_free_detected;
          Alcotest.test_case "size class reuse" `Quick test_size_class_reuse;
        ] );
      ( "large",
        [
          Alcotest.test_case "alloc and coalesce" `Quick
            test_large_alloc_and_coalesce;
          Alcotest.test_case "exhaustion raises" `Quick test_exhaustion_raises;
        ] );
      ( "reincarnation",
        [
          Alcotest.test_case "alloc one run, free the next" `Quick
            test_alloc_in_one_run_free_in_next;
          Alcotest.test_case "large survives reboot" `Quick
            test_large_survives_reboot;
        ] );
      ( "lock",
        [
          Alcotest.test_case "holds off a second fiber" `Quick
            test_heap_lock_holds_off_second_fiber;
          Alcotest.test_case "released by an exception" `Quick
            test_heap_lock_released_on_exception;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_heap_no_overlap;
          QCheck_alcotest.to_alcotest prop_heap_survives_crash_after_every_op;
        ] );
    ]
