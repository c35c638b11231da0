(* Tests for the region layer: mapping table, region manager (boot,
   fault, swap), libmnemosyne regions (pmap/punmap, intention log) and
   pstatic variables. *)

let with_tmpdir f =
  let dir =
    Filename.temp_file "mnemosyne" ""
  in
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

let machine ?(nframes = 256) () = Scm.Env.make_machine ~seed:11 ~nframes ()

(* ------------------------------------------------------------------ *)
(* Mapping table *)

let test_mapping_table_format_and_get () =
  let m = machine ~nframes:64 () in
  let table = Region.Mapping_table.create m.dev in
  Region.Mapping_table.format table m.dev;
  let reserved = Region.Mapping_table.frames_for ~nframes:64 in
  Alcotest.(check bool) "reserves at least one frame" true (reserved >= 1);
  (match Region.Mapping_table.get table 0 with
  | Region.Mapping_table.Reserved -> ()
  | _ -> Alcotest.fail "frame 0 should be reserved");
  match Region.Mapping_table.get table (reserved + 1) with
  | Region.Mapping_table.Free -> ()
  | _ -> Alcotest.fail "data frames should be free"

let test_mapping_table_durable_update () =
  let m = machine ~nframes:64 () in
  let table = Region.Mapping_table.create m.dev in
  Region.Mapping_table.format table m.dev;
  let env = Scm.Env.standalone m in
  Region.Mapping_table.set_mapped table env ~frame:10 ~inode:3 ~page_off:7;
  (* survives a crash: entry was written with write-through + fence *)
  Scm.Crash.inject m;
  let table' = Region.Mapping_table.create m.dev in
  match Region.Mapping_table.get table' 10 with
  | Region.Mapping_table.Mapped { inode = 3; page_off = 7 } -> ()
  | _ -> Alcotest.fail "mapping must survive the crash"

(* ------------------------------------------------------------------ *)
(* Manager *)

let test_manager_format_boot_roundtrip () =
  with_tmpdir (fun dir ->
      let m = machine ~nframes:64 () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      let f1 = Region.Manager.fault_in mgr env ~inode ~page_off:0 in
      let f2 = Region.Manager.fault_in mgr env ~inode ~page_off:1 in
      Alcotest.(check bool) "distinct frames" true (f1 <> f2);
      (* write something durable into the frame *)
      Scm.Scm_device.store64 m.dev (f1 * 4096) 4242L;
      (* reboot: volatile manager state is rebuilt from the table *)
      let mgr' = Region.Manager.boot m backing in
      Alcotest.(check (option int))
        "page 0 resident after boot" (Some f1)
        (Region.Manager.frame_of mgr' ~inode ~page_off:0);
      Alcotest.(check (option int))
        "page 1 resident after boot" (Some f2)
        (Region.Manager.frame_of mgr' ~inode ~page_off:1);
      let stats = Region.Manager.boot_stats mgr' in
      Alcotest.(check int) "scanned all frames" 64 stats.frames_scanned;
      Alcotest.(check int) "rebuilt two mappings" 2 stats.mappings_rebuilt;
      Alcotest.(check bool) "boot cost modeled" true (stats.boot_ns > 0))

let test_manager_swap_out_and_in () =
  with_tmpdir (fun dir ->
      (* Tiny device: reserved frames + 4 data frames force swapping. *)
      let m = machine ~nframes:5 () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      let data_frames = Region.Manager.free_frames mgr in
      Alcotest.(check int) "4 data frames" 4 data_frames;
      (* Touch more pages than frames; write a recognizable word into
         each through the device. *)
      for p = 0 to 7 do
        let f = Region.Manager.fault_in mgr env ~inode ~page_off:p in
        Scm.Scm_device.store64 m.dev (f * 4096) (Int64.of_int (1000 + p))
      done;
      Alcotest.(check bool) "swapped out" true (Region.Manager.swaps_out mgr > 0);
      (* Every page must read back its value, whether resident or not. *)
      for p = 0 to 7 do
        let f = Region.Manager.fault_in mgr env ~inode ~page_off:p in
        Alcotest.(check int64)
          (Printf.sprintf "page %d content" p)
          (Int64.of_int (1000 + p))
          (Scm.Scm_device.load64 m.dev (f * 4096))
      done)

let test_manager_release_pages () =
  with_tmpdir (fun dir ->
      let m = machine ~nframes:64 () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      let free0 = Region.Manager.free_frames mgr in
      for p = 0 to 5 do
        ignore (Region.Manager.fault_in mgr env ~inode ~page_off:p)
      done;
      Alcotest.(check int) "frames consumed" (free0 - 6)
        (Region.Manager.free_frames mgr);
      Region.Manager.release_pages mgr env ~inode;
      Alcotest.(check int) "frames returned" free0
        (Region.Manager.free_frames mgr))

(* A fault copies its page through the manager's one page buffer: 64
   faults of fresh pages grow the major heap by the 64 frames the device
   allocates on their first write and a little bookkeeping, not by a
   4 KiB buffer per fault as well. *)
let test_manager_fault_major_budget () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      (* what a minor collection promotes counts as major words too *)
      Gc.minor ();
      let _, _, before = Gc.counters () in
      for p = 0 to 63 do
        ignore (Region.Manager.fault_in mgr env ~inode ~page_off:p)
      done;
      Gc.minor ();
      let _, _, after = Gc.counters () in
      let grown = int_of_float (after -. before) * (Sys.word_size / 8) in
      let frames = 64 * Scm.Scm_device.frame_size in
      if grown > frames + (frames / 8) then
        Alcotest.failf
          "64 faults grew the major heap by %d B (budget: the 64 frames' \
           %d B plus an eighth)"
          grown frames)

(* ------------------------------------------------------------------ *)
(* Pmem: regions, persistence across reboot, intention log *)

let test_pmem_pmap_and_rw () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v 10_000 in
      Alcotest.(check bool) "in persistent range" true
        (Region.Pmem.is_persistent r);
      Region.Pmem.store v r 17L;
      Region.Pmem.store v (r + 8192) 18L;  (* crosses into page 2 *)
      Alcotest.(check int64) "read back" 17L (Region.Pmem.load v r);
      Alcotest.(check int64) "read back p2" 18L (Region.Pmem.load v (r + 8192));
      Alcotest.(check (list (pair int int)))
        "region listed"
        [ (r, 12288) ]
        (Region.Pmem.regions t))

let test_pmem_byte_ops_across_pages () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v 8192 in
      let data = Bytes.init 1000 (fun i -> Char.chr ((i * 7) mod 256)) in
      (* straddle the page boundary at r+4096 *)
      Region.Pmem.store_bytes v (r + 3600) data 0 1000;
      let back = Bytes.create 1000 in
      Region.Pmem.load_bytes v (r + 3600) back 0 1000;
      Alcotest.(check bytes) "byte roundtrip across pages" data back)

let test_pmem_persistence_across_reboot () =
  with_tmpdir (fun dir ->
      let image = Filename.concat dir "scm.img" in
      let addr =
        let m = machine () in
        let backing = Region.Backing_store.open_dir dir in
        let t = Region.Pmem.open_instance m backing in
        let v = Region.Pmem.default_view t in
        let r = Region.Pmem.pmap v 4096 in
        Region.Pmem.wtstore v r 991L;
        Region.Pmem.fence v;
        (* crash, then save the device image = machine loses power *)
        Scm.Crash.inject m;
        Scm.Scm_device.save_image m.dev image;
        r
      in
      (* reboot: new machine from the image, fresh volatile state *)
      let dev = Scm.Scm_device.load_image image in
      let m' = Scm.Env.machine_of_device dev in
      let backing = Region.Backing_store.open_dir dir in
      let t' = Region.Pmem.open_instance m' backing in
      let v' = Region.Pmem.default_view t' in
      Alcotest.(check (list (pair int int)))
        "region recreated"
        [ (addr, 4096) ]
        (Region.Pmem.regions t');
      Alcotest.(check int64) "data survived" 991L (Region.Pmem.load v' addr))

let test_pmem_punmap_deletes () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v 4096 in
      Region.Pmem.store v r 5L;
      Region.Pmem.punmap v r;
      Alcotest.(check (list (pair int int))) "no regions" []
        (Region.Pmem.regions t);
      Alcotest.check_raises "address no longer mapped"
        (Invalid_argument
           (Printf.sprintf "Pmem: address %#x is not in any persistent region"
              r))
        (fun () -> ignore (Region.Pmem.load v r)))

let test_pmem_address_reuse_after_punmap_is_clean () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r1 = Region.Pmem.pmap v 4096 in
      Region.Pmem.wtstore v r1 777L;
      Region.Pmem.fence v;
      Region.Pmem.punmap v r1;
      let r2 = Region.Pmem.pmap v ~addr:r1 4096 in
      Alcotest.(check int) "same address" r1 r2;
      Alcotest.(check int64) "fresh region reads zero" 0L
        (Region.Pmem.load v r2))

let test_pmem_intention_log_destroys_partial () =
  with_tmpdir (fun dir ->
      (* Simulate a crash in the middle of pmap: intent recorded, valid
         flag never set.  On the next open the region must be
         destroyed. *)
      let image = Filename.concat dir "scm.img" in
      (let m = machine () in
       let backing = Region.Backing_store.open_dir dir in
       let t = Region.Pmem.open_instance m backing in
       let v = Region.Pmem.default_view t in
       ignore (Region.Pmem.pmap v 4096);
       (* Manufacture a partially-created region: flip a valid entry
          back to intent-only, durably, as if we crashed mid-pmap. *)
       let rt_entry = Region.Layout.region_table_base + 64 in
       Region.Pmem.wtstore v (rt_entry + 24) 1L (* intent only *);
       Region.Pmem.fence v;
       Scm.Crash.inject m;
       Scm.Scm_device.save_image m.dev image);
      let dev = Scm.Scm_device.load_image image in
      let m' = Scm.Env.machine_of_device dev in
      let backing = Region.Backing_store.open_dir dir in
      let t' = Region.Pmem.open_instance m' backing in
      Alcotest.(check (list (pair int int)))
        "partial region destroyed" [] (Region.Pmem.regions t'))

let test_pmem_swap_transparent_to_loads () =
  with_tmpdir (fun dir ->
      (* More region pages than SCM frames: loads/stores must still be
         coherent while the manager swaps underneath. *)
      let m = machine ~nframes:24 () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let npages = 40 in
      let r = Region.Pmem.pmap v (npages * 4096) in
      for p = 0 to npages - 1 do
        Region.Pmem.wtstore v (r + (p * 4096)) (Int64.of_int (p + 1));
        Region.Pmem.fence v
      done;
      Alcotest.(check bool) "swapping happened" true
        (Region.Manager.swaps_out (Region.Pmem.manager t) > 0);
      for p = 0 to npages - 1 do
        Alcotest.(check int64)
          (Printf.sprintf "page %d" p)
          (Int64.of_int (p + 1))
          (Region.Pmem.load v (r + (p * 4096)))
      done)

let test_pmem_close_then_fresh_device () =
  with_tmpdir (fun dir ->
      (* Clean shutdown writes regions to backing files; even a brand
         new (zeroed) SCM device must then recover the data. *)
      let r =
        let m = machine () in
        let backing = Region.Backing_store.open_dir dir in
        let t = Region.Pmem.open_instance m backing in
        let v = Region.Pmem.default_view t in
        let r = Region.Pmem.pmap v 4096 in
        Region.Pmem.store v r 31337L;
        Region.Pmem.close v;
        r
      in
      let m' = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t' = Region.Pmem.open_instance m' backing in
      let v' = Region.Pmem.default_view t' in
      Alcotest.(check int64) "recovered from backing files" 31337L
        (Region.Pmem.load v' r))

let test_wear_leveling_migrates_hot_pages () =
  with_tmpdir (fun dir ->
      let m = machine ~nframes:128 () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v (8 * 4096) in
      (* hammer page 0 with durable writes *)
      for i = 0 to 499 do
        Region.Pmem.wtstore v r (Int64.of_int i);
        Region.Pmem.fence v
      done;
      let mgr = Region.Pmem.manager t in
      let hot_frame =
        Region.Pmem.translate v r / 4096
      in
      let moved = Region.Pmem.wear_level v ~threshold:2.0 in
      Alcotest.(check bool) "hot page migrated" true (moved >= 1);
      let new_frame = Region.Pmem.translate v r / 4096 in
      Alcotest.(check bool) "frame changed" true (new_frame <> hot_frame);
      Alcotest.(check int64) "data preserved" 499L (Region.Pmem.load v r);
      ignore mgr;
      (* survives a reboot: the new mapping is durable *)
      Scm.Crash.inject m;
      let _, v' =
        let m' = Scm.Env.machine_of_device m.dev in
        let backing = Region.Backing_store.open_dir dir in
        let t' = Region.Pmem.open_instance m' backing in
        (m', Region.Pmem.default_view t')
      in
      Alcotest.(check int64) "data after reboot" 499L (Region.Pmem.load v' r))

let test_duplicate_mapping_resolved_at_boot () =
  with_tmpdir (fun dir ->
      (* Simulate a crash mid-wear-leveling migration: two frames carry
         the same (inode, page) mapping with identical contents. *)
      let m = machine ~nframes:64 () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      let f1 = Region.Manager.fault_in mgr env ~inode ~page_off:0 in
      Scm.Scm_device.store64 m.dev (f1 * 4096) 777L;
      (* duplicate the mapping onto another frame with the same data *)
      let table = Region.Mapping_table.create m.dev in
      let f2 = f1 + 1 in
      Scm.Scm_device.store64 m.dev (f2 * 4096) 777L;
      Region.Mapping_table.set_mapped table env ~frame:f2 ~inode ~page_off:0;
      (* boot: exactly one survives, the other returns to the free list *)
      let mgr' = Region.Manager.boot m backing in
      let stats = Region.Manager.boot_stats mgr' in
      Alcotest.(check int) "one mapping" 1 stats.mappings_rebuilt;
      (match Region.Manager.frame_of mgr' ~inode ~page_off:0 with
      | Some f ->
          Alcotest.(check int64) "content intact" 777L
            (Scm.Scm_device.load64 m.dev (f * 4096))
      | None -> Alcotest.fail "mapping lost");
      (* the duplicate's table entry was durably cleared *)
      let dups =
        let n = ref 0 in
        Region.Mapping_table.iter (Region.Mapping_table.create m.dev)
          (fun _ entry ->
            match entry with
            | Region.Mapping_table.Mapped { inode = i; page_off = 0 }
              when i = inode ->
                incr n
            | _ -> ());
        !n
      in
      Alcotest.(check int) "single table entry" 1 dups)

(* Two fibers faulting one fresh page at once must share one frame.
   Each fault yields (the page read-in charges I/O) between finding the
   page unmapped and installing it; if both install, each fiber's stores
   go to its own frame and only one frame's words survive a restart. *)
let test_concurrent_fault_one_frame () =
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let dir = Filename.temp_file "mnemosyne" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let inst = Mnemosyne.open_instance ~dir () in
      let slot = Mnemosyne.pstatic inst "test.block" 8 in
      let block = Mnemosyne.pmalloc inst 8192 ~slot in
      let words = 8192 / 8 in
      (* the first page boundary inside the block: a page nothing has
         touched yet *)
      let fresh = (block + 4095) land lnot 4095 in
      let first = (fresh - block) / 8 in
      let value w = Int64.of_int ((w * 7) + 1) in
      let sim = Sim.create () in
      let nfib = 4 in
      for f = 0 to nfib - 1 do
        Sim.spawn sim (fun () ->
            let env =
              Scm.Env.view (Mnemosyne.machine inst)
                ~delay:(fun ns -> Sim.delay sim ns)
                ~now:(fun () -> Sim.now sim)
            in
            let v = Region.Pmem.view (Mnemosyne.pmem inst) env in
            (* every fiber's first store lands on the fresh page *)
            for k = 0 to words - 1 do
              let w = (first + k) mod words in
              if w mod nfib = f then
                Region.Pmem.store v (block + (8 * w)) (value w)
            done)
      done;
      Sim.run sim;
      Mnemosyne.close inst;
      let inst = Mnemosyne.open_instance ~dir () in
      let v = Mnemosyne.view inst in
      let lost = ref 0 in
      for w = 0 to words - 1 do
        if Region.Pmem.load v (block + (8 * w)) <> value w then incr lost
      done;
      Mnemosyne.close inst;
      Alcotest.(check int) "words lost across the restart" 0 !lost)

(* A frame recycled while some thread's write-combining buffer still
   holds streaming stores into it: those stores must reach the page
   they were made to, not whatever page owns the frame when the buffer
   drains.  One fiber posts a word into each of pages 0-15 and fences
   only 10 ms later; meanwhile a second fiber writes pages 16-199 of
   the same region durably, so the 96-frame device evicts and reuses
   the frames of pages 0-15 under the first fiber's pending stores. *)
let test_wc_stores_survive_frame_recycling () =
  with_tmpdir (fun dir ->
      let m = machine ~nframes:96 () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let npages = 200 and posted = 16 in
      let r = Region.Pmem.pmap (Region.Pmem.default_view t) (npages * 4096) in
      let word p = r + (p * 4096) + 64 in
      let value p = Int64.of_int (0x7000_0000 + p) in
      let sim = Sim.create () in
      let view () =
        Region.Pmem.view t
          (Scm.Env.view m
             ~delay:(fun ns -> Sim.delay sim ns)
             ~now:(fun () -> Sim.now sim))
      in
      Sim.spawn sim (fun () ->
          let v = view () in
          for p = 0 to posted - 1 do
            Region.Pmem.wtstore v (word p) (value p)
          done;
          Sim.delay sim 10_000_000;
          Region.Pmem.fence v);
      Sim.spawn sim (fun () ->
          let v = view () in
          for p = posted to npages - 1 do
            Region.Pmem.store v (word p) (value p);
            Region.Pmem.flush v (word p);
            Region.Pmem.fence v
          done);
      Sim.run sim;
      Alcotest.(check bool) "frames were recycled" true
        (Region.Manager.swaps_out (Region.Pmem.manager t) > npages - 96);
      let v = Region.Pmem.default_view t in
      for p = 0 to npages - 1 do
        Alcotest.(check int64)
          (Printf.sprintf "page %d" p)
          (value p)
          (Region.Pmem.load v (word p))
      done)

(* ------------------------------------------------------------------ *)
(* Pstatic *)

let test_pstatic_find_or_create () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let a = Region.Pstatic.get v "counter" 8 in
      Alcotest.(check int64) "zero initialized" 0L (Region.Pmem.load v a);
      Region.Pmem.wtstore v a 5L;
      Region.Pmem.fence v;
      let a' = Region.Pstatic.get v "counter" 8 in
      Alcotest.(check int) "same address" a a';
      Alcotest.(check (option (pair int int)))
        "lookup" (Some (a, 8))
        (Region.Pstatic.lookup v "counter");
      Alcotest.(check (option (pair int int)))
        "missing" None
        (Region.Pstatic.lookup v "nope");
      Alcotest.check_raises "length mismatch"
        (Invalid_argument "Pstatic.get: \"counter\" exists with length 8, not 16")
        (fun () -> ignore (Region.Pstatic.get v "counter" 16)))

let test_pstatic_survives_reboot () =
  with_tmpdir (fun dir ->
      let image = Filename.concat dir "scm.img" in
      let a =
        let m = machine () in
        let backing = Region.Backing_store.open_dir dir in
        let t = Region.Pmem.open_instance m backing in
        let v = Region.Pmem.default_view t in
        let a = Region.Pstatic.get v "root" 16 in
        Region.Pmem.wtstore v a 0xabcdL;
        Region.Pmem.fence v;
        Scm.Crash.inject m;
        Scm.Scm_device.save_image m.dev image;
        a
      in
      let dev = Scm.Scm_device.load_image image in
      let m' = Scm.Env.machine_of_device dev in
      let backing = Region.Backing_store.open_dir dir in
      let t' = Region.Pmem.open_instance m' backing in
      let v' = Region.Pmem.default_view t' in
      Alcotest.(check int) "same address after reboot" a
        (Region.Pstatic.get v' "root" 16);
      Alcotest.(check int64) "value survived" 0xabcdL
        (Region.Pmem.load v' a))

let test_pstatic_many_variables () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let addrs =
        List.init 20 (fun i ->
            Region.Pstatic.get v (Printf.sprintf "var%02d" i) 8)
      in
      let distinct = List.sort_uniq compare addrs in
      Alcotest.(check int) "all distinct" 20 (List.length distinct);
      let count = ref 0 in
      Region.Pstatic.iter v (fun e ->
          incr count;
          Alcotest.(check int) "len" 8 e.len);
      Alcotest.(check int) "iter sees all" 20 !count)

(* An unaligned non-temporal load is an error wherever the word lives:
   in a cached line (where 8 unaligned bytes used to come back, or an
   out-of-bounds read 4 bytes before the line's end), in a line only
   the device holds (the aligned-down word), and in a page that is not
   resident (bytes from the backing-file copy). *)
let test_load_nt_rejects_unaligned () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v (3 * 4096) in
      Region.Pmem.store v r 0x1111L;
      Region.Pmem.wtstore v (r + 4096) 0x2222L;
      Region.Pmem.fence v;
      let unaligned = Invalid_argument "Pmem.load_nt: alignment" in
      List.iter
        (fun (what, a) ->
          Alcotest.check_raises what unaligned (fun () ->
              ignore (Region.Pmem.load_nt v a)))
        [ ("cached line", r + 4); ("past a cached line's end", r + 60);
          ("device-only line", r + 4096 + 4); ("non-resident page", r + 8196) ];
      Alcotest.(check (list int64))
        "aligned loads still read" [ 0x1111L; 0x2222L; 0L ]
        (List.map (Region.Pmem.load_nt v) [ r; r + 4096; r + 8192 ]))

let touch path = close_out (open_out_bin path)

let index_bytes dir =
  In_channel.with_open_bin (Filename.concat dir "index") In_channel.input_all

(* The inode count the index records: its first word. *)
let index_count dir = Int32.to_int (String.get_int32_be (index_bytes dir) 0)

(* The index is rewritten when a name comes or goes, not per create:
   an unnamed create leaves its bytes as they were, while a named
   create and a delete rewrite it, the delete with a count above the
   inode it removed. *)
let test_backing_index_written_per_name () =
  with_tmpdir (fun dir ->
      let b = Region.Backing_store.open_dir dir in
      ignore (Region.Backing_store.create_file b ~name:"static" ());
      let named = index_bytes dir in
      let i = Region.Backing_store.create_file b () in
      let j = Region.Backing_store.create_file b () in
      Alcotest.(check bool) "files created" true
        (Region.Backing_store.file_exists b i
        && Region.Backing_store.file_exists b j);
      Alcotest.(check string) "unnamed creates leave the index" named
        (index_bytes dir);
      Region.Backing_store.delete_file b j;
      Alcotest.(check bool) "delete removes the file" false
        (Region.Backing_store.file_exists b j);
      Alcotest.(check bool) "delete records a count above the inode" true
        (index_count dir > j);
      let deleted = index_bytes dir in
      ignore (Region.Backing_store.create_file b ~name:"other" ());
      Alcotest.(check bool) "named create rewrites the index" true
        (index_bytes dir <> deleted);
      Alcotest.(check (option int)) "name found after reopening"
        (Region.Backing_store.find b "other")
        (Region.Backing_store.find (Region.Backing_store.open_dir dir) "other"))

(* A handle dropped without [sync] (a crash) leaves the index's count
   behind the inodes it handed out since the last rewrite; reopening
   must still hand out a fresh one, above every file on disk and every
   file deleted before the crash. *)
let test_backing_inodes_unique_across_crash () =
  with_tmpdir (fun dir ->
      let b = Region.Backing_store.open_dir dir in
      ignore (Region.Backing_store.create_file b ~name:"static" ());
      let made = List.init 5 (fun _ -> Region.Backing_store.create_file b ()) in
      let b' = Region.Backing_store.open_dir dir in
      let next = Region.Backing_store.create_file b' () in
      Alcotest.(check bool) "above all created" true
        (List.for_all (fun i -> next > i) made);
      (* the two newest go, with no sync before the next crash *)
      Region.Backing_store.delete_file b' next;
      Region.Backing_store.delete_file b' (List.nth made 4);
      let b'' = Region.Backing_store.open_dir dir in
      let again = Region.Backing_store.create_file b'' () in
      Alcotest.(check bool) "a deleted inode is not reused" true (again > next);
      let static = Option.get (Region.Backing_store.find b'' "static") in
      Alcotest.(check (list int)) "files on disk"
        ((static :: List.filteri (fun k _ -> k < 4) made) @ [ again ])
        (Region.Backing_store.list_inodes b''))

(* [file_name] writes at least six digits, so inode 1,000,000 is
   "f1000000": the listing and the floor must see it. *)
let test_backing_lists_long_names () =
  with_tmpdir (fun dir ->
      List.iter
        (fun n -> touch (Filename.concat dir n))
        [ "f1000000"; "f"; "fx1"; "f12a"; "g000003" ];
      let b = Region.Backing_store.open_dir dir in
      Alcotest.(check (list int)) "listed" [ 1_000_000 ]
        (Region.Backing_store.list_inodes b);
      let i = Region.Backing_store.create_file b () in
      Alcotest.(check int) "next inode" 1_000_001 i;
      Alcotest.(check bool) "its file" true
        (Sys.file_exists (Filename.concat dir "f1000001"));
      Alcotest.(check (list int)) "both listed" [ 1_000_000; 1_000_001 ]
        (Region.Backing_store.list_inodes b))

let test_error_paths () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      Alcotest.check_raises "pmap zero length"
        (Invalid_argument "Pmem.pmap: length") (fun () ->
          ignore (Region.Pmem.pmap v 0));
      Alcotest.check_raises "pmap unaligned explicit address"
        (Invalid_argument "Pmem.pmap: unaligned address") (fun () ->
          ignore (Region.Pmem.pmap v ~addr:(Region.Layout.dynamic_base + 5) 4096));
      Alcotest.check_raises "pmap outside range"
        (Invalid_argument "Pmem.pmap: address outside the persistent range")
        (fun () -> ignore (Region.Pmem.pmap v ~addr:4096 4096));
      let r = Region.Pmem.pmap v 8192 in
      Alcotest.check_raises "pmap overlapping"
        (Invalid_argument "Pmem.pmap: address already mapped") (fun () ->
          ignore (Region.Pmem.pmap v ~addr:r 4096));
      Alcotest.check_raises "punmap middle of region"
        (Invalid_argument "Pmem.punmap: address is not a region base")
        (fun () -> Region.Pmem.punmap v (r + 4096));
      Alcotest.check_raises "punmap static region"
        (Invalid_argument "Pmem.punmap: cannot unmap the static region")
        (fun () -> Region.Pmem.punmap v Region.Layout.static_base);
      Alcotest.check_raises "load outside persistent range"
        (Invalid_argument "Pmem: 0x10 is not a persistent address") (fun () ->
          ignore (Region.Pmem.load v 16));
      Alcotest.check_raises "pstatic name too long"
        (Invalid_argument "Pstatic.get: name too long") (fun () ->
          ignore (Region.Pstatic.get v (String.make 40 'x') 8)))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_pstatic_crash_atomic =
  (* crash right after creating variables: each one either resolves to
     its full definition or is absent; re-creating is always safe *)
  QCheck.Test.make ~name:"pstatic creation is crash-atomic" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 1 12))
    (fun (seed, nvars) ->
      with_tmpdir (fun dir ->
          let m = Scm.Env.make_machine ~seed ~nframes:256 () in
          let backing = Region.Backing_store.open_dir dir in
          let t = Region.Pmem.open_instance m backing in
          let v = Region.Pmem.default_view t in
          let addrs =
            List.init nvars (fun i ->
                Region.Pstatic.get v (Printf.sprintf "var%02d" i) 16)
          in
          Scm.Crash.inject m;
          let m' = Scm.Env.machine_of_device m.dev in
          let backing = Region.Backing_store.open_dir dir in
          let t' = Region.Pmem.open_instance m' backing in
          let v' = Region.Pmem.default_view t' in
          List.for_all
            (fun i ->
              let name = Printf.sprintf "var%02d" i in
              match Region.Pstatic.lookup v' name with
              | Some (addr, 16) ->
                  (* survived: must be exactly where it was *)
                  addr = List.nth addrs i
              | Some _ -> false
              | None ->
                  (* lost in the crash: recreating must succeed *)
                  Region.Pstatic.get v' name 16 > 0)
            (List.init nvars Fun.id)))

let prop_pmem_wordwise_model =
  QCheck.Test.make ~name:"pmem loads match a model under random stores"
    ~count:40
    QCheck.(list (pair (int_bound 511) (int_bound 10_000)))
    (fun ops ->
      with_tmpdir (fun dir ->
          let m = machine ~nframes:16 () in
          let backing = Region.Backing_store.open_dir dir in
          let t = Region.Pmem.open_instance m backing in
          let v = Region.Pmem.default_view t in
          let r = Region.Pmem.pmap v (8 * 4096) in
          let model = Hashtbl.create 64 in
          List.iter
            (fun (slot, value) ->
              let addr = r + (slot * 8) in
              let value = Int64.of_int value in
              if value = 0L then Region.Pmem.flush v addr
              else begin
                Region.Pmem.store v addr value;
                Hashtbl.replace model slot value
              end)
            ops;
          Hashtbl.fold
            (fun slot expected ok ->
              ok && Region.Pmem.load v (r + (slot * 8)) = expected)
            model true))

(* [Pmem.load_nt_into] against as many consecutive [Pmem.load_nt]
   calls, on two instances built identically: a 4-page region whose
   backing file holds data (left whole, cut short at any byte, or
   deleted), some of whose pages were then faulted in with clean
   lines, dirty lines the device does not yet hold, and streaming
   stores still pending.  The words read, the crash-point count, the
   pending stores and the dirty lines must agree, and with nothing
   pending the read must leave all three as they were. *)
let prop_load_nt_into_matches_load_nt =
  let pages = 4 in
  let words = pages * 512 in
  let build dir (file, cut) ops =
    let m = machine ~nframes:64 () in
    let backing = Region.Backing_store.open_dir dir in
    let t = Region.Pmem.open_instance m backing in
    let v = Region.Pmem.default_view t in
    let r = Region.Pmem.pmap v (pages * 4096) in
    let static = Region.Backing_store.find backing "static" in
    let inode =
      List.find
        (fun i -> Some i <> static)
        (Region.Backing_store.list_inodes backing)
    in
    (* nothing of the region is resident yet: its file is the truth *)
    let page = Bytes.create 4096 in
    for p = 0 to pages - 1 do
      for w = 0 to 511 do
        Bytes.set_int64_le page (8 * w) (Int64.of_int ((p lsl 16) lor w lor 1))
      done;
      Region.Backing_store.write_page backing inode p page
    done;
    (* the backing store's file for [inode] *)
    let path = Filename.concat dir (Printf.sprintf "f%06d" inode) in
    (match file with
    | 0 -> ()
    | 1 -> Unix.truncate path (cut mod (pages * 4096))
    | _ -> Sys.remove path);
    List.iter
      (fun (kind, w) ->
        let a = r + (8 * w) in
        let x = Int64.of_int ((w * 7919) + kind) in
        match kind with
        | 0 -> ignore (Region.Pmem.load v a)
        | 1 -> Region.Pmem.store v a x
        | 2 -> Region.Pmem.flush v a
        | 3 -> Region.Pmem.wtstore v a x
        | _ -> Region.Pmem.fence v)
      ops;
    (m, v, r)
  in
  let state (m : Scm.Env.machine) (v : Region.Pmem.view) =
    ( Scm.Crashpoint.count m.crash_point,
      Scm.Wc_buffer.pending_words v.env.wc,
      Scm.Cache.dirty_lines m.cache )
  in
  QCheck.Test.make ~name:"load_nt_into equals consecutive load_nt calls"
    ~count:60
    QCheck.(
      triple
        (pair (int_bound 2) (int_bound 100_000))
        (list_of_size
           Gen.(0 -- 16)
           (pair (int_bound 4) (int_bound (words - 1))))
        (pair (int_bound (words - 1)) (int_bound words)))
    (fun (file, ops, (start, len)) ->
      let len = min len (words - start) in
      let read_with f =
        with_tmpdir (fun dir ->
            let m, v, r = build dir file ops in
            let before = state m v in
            let buf = Bytes.make (8 * len) '\xff' in
            f v (r + (8 * start)) buf;
            (before, state m v, buf))
      in
      let before, after, bulk =
        read_with (fun v a buf -> Region.Pmem.load_nt_into v a buf 0 (8 * len))
      in
      let _, after', wordwise =
        read_with (fun v a buf ->
            for i = 0 to len - 1 do
              Bytes.set_int64_le buf (8 * i)
                (Region.Pmem.load_nt v (a + (8 * i)))
            done)
      in
      let _, pending, _ = before in
      Bytes.equal bulk wordwise && after = after'
      && (pending > 0 || after = before))

let () =
  Alcotest.run "region"
    [
      ( "mapping-table",
        [
          Alcotest.test_case "format and get" `Quick
            test_mapping_table_format_and_get;
          Alcotest.test_case "durable update" `Quick
            test_mapping_table_durable_update;
        ] );
      ( "manager",
        [
          Alcotest.test_case "format/boot roundtrip" `Quick
            test_manager_format_boot_roundtrip;
          Alcotest.test_case "swap out and in" `Quick
            test_manager_swap_out_and_in;
          Alcotest.test_case "release pages" `Quick test_manager_release_pages;
          Alcotest.test_case "a fault allocates no page buffer" `Quick
            test_manager_fault_major_budget;
          Alcotest.test_case "wear leveling migrates hot pages" `Quick
            test_wear_leveling_migrates_hot_pages;
          Alcotest.test_case "duplicate mapping resolved at boot" `Quick
            test_duplicate_mapping_resolved_at_boot;
          Alcotest.test_case "concurrent faults share one frame" `Quick
            test_concurrent_fault_one_frame;
          Alcotest.test_case "streaming stores survive frame recycling"
            `Quick test_wc_stores_survive_frame_recycling;
        ] );
      ( "pmem",
        [
          Alcotest.test_case "pmap and rw" `Quick test_pmem_pmap_and_rw;
          Alcotest.test_case "byte ops across pages" `Quick
            test_pmem_byte_ops_across_pages;
          Alcotest.test_case "persistence across reboot" `Quick
            test_pmem_persistence_across_reboot;
          Alcotest.test_case "punmap deletes" `Quick test_pmem_punmap_deletes;
          Alcotest.test_case "address reuse after punmap" `Quick
            test_pmem_address_reuse_after_punmap_is_clean;
          Alcotest.test_case "intention log destroys partial" `Quick
            test_pmem_intention_log_destroys_partial;
          Alcotest.test_case "swap transparent to loads" `Quick
            test_pmem_swap_transparent_to_loads;
          Alcotest.test_case "close then fresh device" `Quick
            test_pmem_close_then_fresh_device;
        ] );
      ( "pstatic",
        [
          Alcotest.test_case "find or create" `Quick
            test_pstatic_find_or_create;
          Alcotest.test_case "survives reboot" `Quick
            test_pstatic_survives_reboot;
          Alcotest.test_case "many variables" `Quick
            test_pstatic_many_variables;
        ] );
      ( "backing-store",
        [
          Alcotest.test_case "index written per name" `Quick
            test_backing_index_written_per_name;
          Alcotest.test_case "inodes unique across a crash" `Quick
            test_backing_inodes_unique_across_crash;
          Alcotest.test_case "lists names past six digits" `Quick
            test_backing_lists_long_names;
        ] );
      ( "errors",
        [
          Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "load_nt rejects an unaligned address" `Quick
            test_load_nt_rejects_unaligned;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pmem_wordwise_model;
          QCheck_alcotest.to_alcotest prop_load_nt_into_matches_load_nt;
          QCheck_alcotest.to_alcotest prop_pstatic_crash_atomic;
        ] );
    ]
