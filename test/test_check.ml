(* Tests for lib/check: the Pmcheck durability sanitizer and the
   pmfsck offline image analyzer.

   Each sanitizer rule and each fsck invariant gets a seeded-corruption
   test: build a healthy image (and prove the checker is silent on it),
   inject one specific fault, and assert the checker reports exactly
   the right typed violation.  Without the checker every one of these
   faults would go unnoticed. *)

module Pm = Scm.Pmcheck
module Pmem = Region.Pmem
module Heap = Pmheap.Heap
module Hoard = Pmheap.Hoard
module Large = Pmheap.Large_alloc

let b = Bytes.of_string

let with_tmpdir f =
  let dir = Filename.temp_file "mnemochk" "" in
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

let kinds chk = List.map (fun v -> v.Pm.kind) (Pm.violations chk)

let has_kind chk kind = List.mem kind (kinds chk)

let check_only_kind chk kind =
  Alcotest.(check bool)
    (Printf.sprintf "reported as %s" (Pm.kind_name kind))
    true
    (Pm.violations chk <> []
    && List.for_all (fun v -> v.Pm.kind = kind) (Pm.violations chk))

(* ------------------------------------------------------------------ *)
(* Pmcheck: the per-word state machine, driven directly.               *)

let frame = 3
let vpage = (Region.Layout.persistent_base / 4096) + 100
let word = (vpage * 4096) + 64 (* virtual addr of the word under test *)
let phys = (frame * 4096) + 64
let log_base = Region.Layout.persistent_base + 0x10_0000

let mk ?lint_fences () =
  let obs = Obs.create () in
  let cp = Scm.Crashpoint.create () in
  let chk = Pm.create ?lint_fences ~obs ~cp ~nframes:64 () in
  Pm.note_mapping chk ~vpage ~frame;
  Pm.register_log chk ~base:log_base ~bytes:4096;
  chk

(* The write-ahead rule: a commit that skips the log fence leaves its
   record's durability unproven, so the first write-back of a new data
   value must be flagged. *)
let test_write_ahead () =
  let chk = mk () in
  Pm.commit_begin chk ~log:log_base [| word |] 1;
  Pm.check_store chk word;
  (* No commit_logged: the fence was dropped.  The line reaches the
     device carrying the new value. *)
  Pm.device_reach_line chk phys 64;
  Alcotest.(check int) "one violation" 1 (Pm.total_violations chk);
  check_only_kind chk Pm.Write_ahead;
  Alcotest.(check int) "at the word" word
    (List.hd (Pm.violations chk)).Pm.addr

(* The same sequence with the fence in place must be silent end to
   end, through truncation. *)
let test_clean_commit_protocol () =
  let chk = mk () in
  Pm.commit_begin chk ~log:log_base [| word |] 1;
  Pm.commit_logged chk ~log:log_base;
  Pm.check_store chk word;
  Pm.device_reach_line chk phys 64;
  Pm.commit_end chk ~log:log_base;
  Pm.note_truncate chk ~log:log_base ~all:false;
  Alcotest.(check int) "silent" 0 (Pm.total_violations chk)

(* Truncation racing un-fenced data: the record retires while the data
   it covers is still dirty in the cache. *)
let test_trunc_unfenced () =
  let chk = mk () in
  Pm.commit_begin chk ~log:log_base [| word |] 1;
  Pm.commit_logged chk ~log:log_base;
  Pm.check_store chk word;
  Pm.commit_end chk ~log:log_base;
  (* The word never reached the device, yet the log moves its head. *)
  Pm.note_truncate chk ~log:log_base ~all:false;
  Alcotest.(check int) "one violation" 1 (Pm.total_violations chk);
  check_only_kind chk Pm.Trunc_unfenced

(* ------------------------------------------------------------------ *)
(* Pmcheck: wired into a live instance via Env.install_pmcheck.        *)

let with_sanitized ?lint_fences f =
  with_tmpdir (fun dir ->
      let obs = Obs.create () in
      let machine = Mnemosyne.prepare_machine ~obs ~dir () in
      let chk = Scm.Env.install_pmcheck ?lint_fences machine in
      let inst = Mnemosyne.open_instance ~obs ~machine ~dir () in
      f inst chk)

let seed_block inst name =
  let slot = Mnemosyne.pstatic inst name 8 in
  Mnemosyne.atomically inst (fun tx ->
      let a = Mtm.Txn.alloc tx 64 ~slot in
      for i = 0 to 7 do
        Mtm.Txn.store tx (a + (8 * i)) (Int64.of_int (i + 1))
      done;
      a)

let test_unlogged_store () =
  with_sanitized (fun inst chk ->
      let a = seed_block inst "chk.ul" in
      Alcotest.(check int) "transactional workload is clean" 0
        (Pm.total_violations chk);
      (* A raw in-place store to persistent data, outside any
         transaction: nothing logs it, so a crash mid-write-back would
         tear it. *)
      Pmem.store (Mnemosyne.view inst) a 99L;
      Alcotest.(check bool) "flagged" true (has_kind chk Pm.Unlogged_store);
      Alcotest.(check bool) "at the stored word" true
        (List.exists
           (fun v -> v.Pm.kind = Pm.Unlogged_store && v.Pm.addr = a)
           (Pm.violations chk)))

let test_uninit_read () =
  with_sanitized (fun inst chk ->
      let slot = Mnemosyne.pstatic inst "chk.ui" 8 in
      let a =
        Mnemosyne.atomically inst (fun tx ->
            let a = Mtm.Txn.alloc tx 64 ~slot in
            Mtm.Txn.store tx a 1L;
            (* words a+8 .. a+56 are allocated but never written *)
            a)
      in
      Alcotest.(check int) "allocation itself is clean" 0
        (Pm.total_violations chk);
      ignore (Pmem.load (Mnemosyne.view inst) (a + 8));
      Alcotest.(check bool) "flagged" true (has_kind chk Pm.Uninit_read);
      Alcotest.(check bool) "at the unwritten word" true
        (List.exists
           (fun v -> v.Pm.kind = Pm.Uninit_read && v.Pm.addr = a + 8)
           (Pm.violations chk)))

let test_redundant_fence () =
  with_sanitized ~lint_fences:true (fun inst chk ->
      let v = Mnemosyne.view inst in
      let n0 = Pm.total_violations chk in
      Pmem.fence v;
      (* Nothing was posted, written back or flushed in between: the
         second fence orders nothing. *)
      Pmem.fence v;
      Alcotest.(check bool) "flagged" true (Pm.total_violations chk > n0);
      Alcotest.(check bool) "classified as redundant_fence" true
        (has_kind chk Pm.Redundant_fence);
      Alcotest.(check bool) "noop fences counted" true (Pm.noop_fences chk > 0))

let test_sanitizer_silent_on_clean_run () =
  with_sanitized (fun inst chk ->
      let a = seed_block inst "chk.ok" in
      for round = 0 to 4 do
        Mnemosyne.atomically inst (fun tx ->
            for i = 0 to 7 do
              let w = a + (8 * i) in
              Mtm.Txn.store tx w (Int64.add (Mtm.Txn.load tx w)
                                    (Int64.of_int round))
            done)
      done;
      Pmem.fence (Mnemosyne.view inst);
      Alcotest.(check int) "no violations" 0 (Pm.total_violations chk))

(* ------------------------------------------------------------------ *)
(* pmfsck: seeded corruption of an otherwise healthy image.            *)

let fsck inst = Check.Pmfsck.run (Mnemosyne.view inst)

let fsck_kinds r = List.map (fun f -> f.Check.Pmfsck.kind) r.Check.Pmfsck.findings

let check_clean what r =
  if not (Check.Pmfsck.ok r) then
    Alcotest.failf "%s not clean:\n%s" what (Check.Pmfsck.render r)

let check_finds r kind =
  if not (List.mem kind (fsck_kinds r)) then
    Alcotest.failf "expected a %s finding, got:\n%s"
      (Check.Pmfsck.kind_name kind)
      (Check.Pmfsck.render r)

(* wtstore + fence: durable out-of-band mutation, the corruption
   primitive every test below uses. *)
let corrupt v addr value =
  Pmem.wtstore v addr value;
  Pmem.fence v

let test_fsck_region_overlap () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      ignore (seed_block inst "chk.root");
      check_clean "pre-corruption image" (fsck inst);
      let v = Mnemosyne.view inst in
      (* Forge a well-formed region-table entry whose extent lands
         inside an existing region. *)
      let rb, _ = List.hd (Pmem.regions (Mnemosyne.pmem inst)) in
      let free =
        let rec go i =
          if i >= Pmem.rt_capacity then Alcotest.fail "region table full"
          else if Pmem.load_nt v (Pmem.entry_addr i + 24) = 0L then i
          else go (i + 1)
        in
        go 0
      in
      let e = Pmem.entry_addr free in
      Pmem.wtstore v e (Int64.of_int (rb + Region.Layout.page_size));
      Pmem.wtstore v (e + 8) (Int64.of_int Region.Layout.page_size);
      Pmem.wtstore v (e + 16) 99L;
      Pmem.wtstore v (e + 24) Pmem.flag_valid;
      Pmem.fence v;
      let r = fsck inst in
      check_finds r Check.Pmfsck.Region_table;
      Alcotest.(check bool) "overlap named" true
        (List.exists
           (fun f ->
             f.Check.Pmfsck.kind = Check.Pmfsck.Region_table
             && String.length f.detail > 0)
           r.Check.Pmfsck.findings))

let test_fsck_leak () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let slot = Mnemosyne.pstatic inst "chk.root" 8 in
      ignore (seed_block inst "chk.root");
      check_clean "pre-corruption image" (fsck inst);
      (* Sever the only root pointing at the allocation: the block is
         still marked allocated in the superblock bitmap but nothing
         reaches it. *)
      corrupt (Mnemosyne.view inst) slot 0L;
      check_finds (fsck inst) Check.Pmfsck.Leak)

let test_fsck_large_chunk_footer () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let slot = Mnemosyne.pstatic inst "chk.large" 8 in
      let la =
        Mnemosyne.atomically inst (fun tx ->
            let a = Mtm.Txn.alloc tx (2 * Heap.small_limit) ~slot in
            Mtm.Txn.store tx a 7L;
            a)
      in
      check_clean "pre-corruption image" (fsck inst);
      let v = Mnemosyne.view inst in
      let chunk = la - 8 in
      let size = Large.hdr_size (Pmem.load_nt v chunk) in
      (* Contradict the boundary tag: footer says the chunk is bigger
         than its header does. *)
      corrupt v (Large.footer_addr chunk size) (Int64.of_int (size + 64));
      check_finds (fsck inst) Check.Pmfsck.Heap_chain)

let test_fsck_bitmap_bit_beyond_blocks () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      ignore (seed_block inst "chk.root");
      check_clean "pre-corruption image" (fsck inst);
      let v = Mnemosyne.view inst in
      let hb = Heap.base (Mnemosyne.heap inst) in
      let sbs = Int64.to_int (Pmem.load_nt v (Heap.sb_count_addr hb)) in
      let sb_area = Heap.sb_area_base hb in
      let sbb, bsize =
        let rec go sb =
          if sb >= sbs then Alcotest.fail "no assigned superblock"
          else
            let sbb = sb_area + (sb * Hoard.superblock_bytes) in
            match Hoard.unpack_header (Pmem.load_nt v sbb) with
            | Some bsize -> (sbb, bsize)
            | None -> go (sb + 1)
        in
        go 0
      in
      (* Set the first allocation bit past the class's block count. *)
      let idx = Hoard.blocks_per bsize in
      let wa = sbb + 8 + (8 * (idx / 64)) in
      let bit = Int64.shift_left 1L (idx mod 64) in
      corrupt v wa (Int64.logor (Pmem.load_nt v wa) bit);
      check_finds (fsck inst) Check.Pmfsck.Heap_bitmap)

let test_fsck_log_head_out_of_range () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      ignore (seed_block inst "chk.root");
      check_clean "pre-corruption image" (fsck inst);
      let v = Mnemosyne.view inst in
      let slot = Mnemosyne.pstatic inst "mtm.log.00" 8 in
      let base = Int64.to_int (Pmem.load_nt v slot) in
      (* Head offset far past any plausible capacity. *)
      corrupt v base (Int64.of_int 0xFFFFF);
      check_finds (fsck inst) Check.Pmfsck.Log_header)

let test_fsck_phashtable_bucket_count () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let slot = Mnemosyne.pstatic inst "chk.ht" 8 in
      Mnemosyne.atomically inst (fun tx ->
          let h = Pstruct.Phashtable.create tx ~slot ~buckets:16 in
          Pstruct.Phashtable.put tx h (b "alpha") (b "1");
          Pstruct.Phashtable.put tx h (b "beta") (b "2"));
      check_clean "pre-corruption image" (fsck inst);
      let v = Mnemosyne.view inst in
      let root = Int64.to_int (Pmem.load_nt v slot) in
      (* Keep the magic, break the power-of-two bucket count. *)
      corrupt v root
        (Int64.logor (Int64.shift_left Pstruct.Phashtable.magic 56) 24L);
      check_finds (fsck inst) Check.Pmfsck.Pstruct)

(* A healthy image with real structures in it must stay silent, and
   two full passes must not mutate the backing store by even one
   word: pmfsck is strictly read-only. *)
let test_fsck_clean_and_readonly () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let ht_slot = Mnemosyne.pstatic inst "chk.ht" 8 in
      let bp_slot = Mnemosyne.pstatic inst "chk.bp" 8 in
      Mnemosyne.atomically inst (fun tx ->
          let h = Pstruct.Phashtable.create tx ~slot:ht_slot ~buckets:16 in
          for i = 0 to 19 do
            Pstruct.Phashtable.put tx h
              (b (Printf.sprintf "k%03d" i))
              (b (string_of_int i))
          done;
          let bp = Pstruct.Bp_tree.create tx ~slot:bp_slot in
          for i = 0 to 39 do
            Pstruct.Bp_tree.put tx bp (Int64.of_int i) (b (string_of_int i))
          done);
      let m0 = Region.Backing_store.global_mutations () in
      let r1 = fsck inst in
      let r2 = fsck inst in
      check_clean "populated image" r1;
      check_clean "second pass" r2;
      Alcotest.(check int) "fsck mutated nothing" m0
        (Region.Backing_store.global_mutations ());
      Alcotest.(check bool) "structures walked" true
        (r1.Check.Pmfsck.stats.blocks > 2
        && r1.Check.Pmfsck.stats.reachable = r1.Check.Pmfsck.stats.blocks);
      (* Reports render both ways without raising. *)
      ignore (Check.Pmfsck.render r1);
      ignore (Check.Pmfsck.to_json r1))

(* ------------------------------------------------------------------ *)
(* Racecheck: the happens-before race detector.

   One minimal racy (or deliberately clean) program per HB-edge kind,
   driven through the hook record the instrumented layers fire — plus
   two real-simulator programs proving the Sim wiring (service
   wake→unpark tokens, reentrant mutexes) produces the same edges.
   The qcheck property at the end replays random programs through the
   epoch-compressed detector and the textbook full-vector-clock one
   and demands identical verdicts. *)

module Rc = Check.Racecheck

(* Manual fiber control: tests move [fib] to pick the acting fiber,
   exactly what the harness's [Sim.current_proc] closure does. *)
let mk_det ?mode () =
  let fib = ref 0 in
  let det = Rc.create ?mode ~fiber:(fun () -> !fib) ~now:(fun () -> 0) () in
  (det, Rc.hooks det, fib)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_rc_unordered_writes_race () =
  let det, h, fib = mk_det () in
  fib := 1;
  h.Race_api.write "x";
  fib := 2;
  h.Race_api.write "x";
  match Rc.races det with
  | [ r ] ->
      Alcotest.(check string) "location" "x" r.Rc.loc;
      Alcotest.(check bool) "write/write" true (r.Rc.kind = Rc.Write_write);
      Alcotest.(check int) "prior fiber" 1 r.Rc.prior.Rc.fiber;
      Alcotest.(check int) "current fiber" 2 r.Rc.cur.Rc.fiber;
      Alcotest.(check bool) "prior op precedes current op" true
        (r.Rc.prior.Rc.op < r.Rc.cur.Rc.op);
      let s = Rc.render r in
      Alcotest.(check bool) "render names both fibers and the label" true
        (contains s "fiber 1" && contains s "fiber 2" && contains s "x")
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 race, got %d" (List.length rs))

let test_rc_read_write_kinds () =
  let det, h, fib = mk_det () in
  fib := 1;
  h.Race_api.read "r_then_w";
  fib := 2;
  h.Race_api.write "r_then_w";
  fib := 1;
  h.Race_api.write "w_then_r";
  fib := 2;
  h.Race_api.read "w_then_r";
  let by_loc = List.map (fun r -> (r.Rc.loc, r.Rc.kind)) (Rc.races det) in
  Alcotest.(check bool) "read then write classified" true
    (List.mem ("r_then_w", Rc.Read_write) by_loc);
  Alcotest.(check bool) "write then read classified" true
    (List.mem ("w_then_r", Rc.Write_read) by_loc)

let test_rc_tainted_loc_reported_once () =
  let det, h, fib = mk_det () in
  fib := 1;
  h.Race_api.write "x";
  fib := 2;
  h.Race_api.write "x";
  fib := 3;
  h.Race_api.write "x";
  fib := 2;
  h.Race_api.read "x";
  Alcotest.(check int) "first race taints the location" 1 (Rc.race_count det)

let test_rc_fork_edge () =
  let det, h, fib = mk_det () in
  fib := 1;
  h.Race_api.write "x";
  h.Race_api.fork ~parent:1 ~child:2;
  fib := 2;
  h.Race_api.write "x";
  Alcotest.(check int) "spawn orders parent's prior writes" 0
    (Rc.race_count det);
  (* the fork edge is one-directional and one-shot: the parent's own
     *later* accesses are unordered with the child *)
  h.Race_api.fork ~parent:1 ~child:3;
  fib := 1;
  h.Race_api.write "y";
  fib := 3;
  h.Race_api.write "y";
  Alcotest.(check int) "parent-after-fork races the child" 1
    (Rc.race_count det)

let test_rc_transfer_edge () =
  let det, h, fib = mk_det () in
  fib := 1;
  h.Race_api.write "x";
  h.Race_api.transfer ~src:1 ~dst:2;
  fib := 2;
  h.Race_api.write "x";
  Alcotest.(check int) "suspend/resume transfer orders the handoff" 0
    (Rc.race_count det)

let test_rc_lock_discipline () =
  let det, h, fib = mk_det () in
  fib := 1;
  h.Race_api.acquire "m";
  h.Race_api.write "guarded";
  h.Race_api.release "m";
  fib := 2;
  h.Race_api.acquire "m";
  h.Race_api.write "guarded";
  h.Race_api.release "m";
  Alcotest.(check int) "lock-ordered writes are silent" 0 (Rc.race_count det)

let test_rc_atomics_never_reported () =
  let det, h, fib = mk_det () in
  fib := 1;
  h.Race_api.rmw "counter";
  fib := 2;
  h.Race_api.rmw "counter";
  Alcotest.(check int) "unordered rmws are intentional, not races" 0
    (Rc.race_count det);
  (* ...but they are edges: publishing through an rmw chain orders the
     plain data behind it *)
  fib := 1;
  h.Race_api.write "data";
  h.Race_api.rmw "counter";
  fib := 2;
  h.Race_api.rmw "counter";
  h.Race_api.write "data";
  Alcotest.(check int) "rmw chain carries the edge" 0 (Rc.race_count det)

let test_rc_channel_handoff () =
  let det, h, fib = mk_det () in
  (* the pending_q discipline: per-item plain descriptor + channel edge *)
  fib := 1;
  h.Race_api.write "desc.0";
  h.Race_api.release "q";
  fib := 2;
  h.Race_api.acquire "q";
  h.Race_api.read "desc.0";
  Alcotest.(check int) "push/pop edge orders the descriptor" 0
    (Rc.race_count det);
  (* the same handoff without the channel edge is the lost-wakeup
     shape: a drainer sweeping a queue it never synchronized with *)
  fib := 1;
  h.Race_api.write "desc.1";
  fib := 2;
  h.Race_api.read "desc.1";
  Alcotest.(check int) "edge-free handoff is a race" 1 (Rc.race_count det)

let test_rc_clean_program_silent () =
  let det, h, fib = mk_det () in
  (* fork two workers, each guards the shared loc, parent reads after
     both released through the lock: every access ordered *)
  h.Race_api.fork ~parent:0 ~child:1;
  h.Race_api.fork ~parent:0 ~child:2;
  List.iter
    (fun f ->
      fib := f;
      h.Race_api.acquire "m";
      h.Race_api.read "acc";
      h.Race_api.write "acc";
      h.Race_api.release "m")
    [ 1; 2 ];
  fib := 0;
  h.Race_api.acquire "m";
  h.Race_api.read "acc";
  Alcotest.(check int) "clean program, zero races" 0 (Rc.race_count det);
  Alcotest.(check int) "detector consumed the whole program" 12 (Rc.ops det)

(* The Sim wiring end-to-end: the service wake→unpark token is the HB
   edge for data published before the wake — and only that data. *)
let test_rc_sim_service_token () =
  let sim = Sim.create () in
  let det =
    Rc.create
      ~fiber:(fun () -> Sim.current_proc sim)
      ~now:(fun () -> Sim.now sim)
      ()
  in
  let h = Rc.hooks det in
  Sim.set_race sim (Some h);
  let v = ref 0 in
  let processed = ref false in
  let svc = ref None in
  let s =
    Sim.Service.spawn sim ~work:(fun () ->
        if !v > 0 && not !processed then begin
          h.Race_api.read "handoff";
          h.Race_api.read "late";
          processed := true;
          true
        end
        else false)
  in
  svc := Some s;
  Sim.spawn sim (fun () ->
      Sim.delay sim 10;
      h.Race_api.write "handoff";
      v := 1;
      Sim.Service.wake s;
      (* published after the wake: nothing orders this against the
         daemon's read, and the detector says so even on a run where
         the daemon happens to read the already-written value *)
      h.Race_api.write "late";
      Sim.delay sim 100;
      Sim.Service.stop s);
  Sim.run sim;
  Alcotest.(check bool) "daemon ran the work" true !processed;
  match Rc.races det with
  | [ r ] ->
      Alcotest.(check string) "only the post-wake publish races" "late"
        r.Rc.loc
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly the 'late' race, got %d"
           (List.length rs))

let test_rc_sim_mutex_edges () =
  let sim = Sim.create () in
  let det =
    Rc.create
      ~fiber:(fun () -> Sim.current_proc sim)
      ~now:(fun () -> Sim.now sim)
      ()
  in
  let h = Rc.hooks det in
  Sim.set_race sim (Some h);
  let m = Sim.Mutex_r.create sim in
  for i = 1 to 2 do
    Sim.spawn sim (fun () ->
        Sim.delay sim i;
        (* outside the lock: nothing orders the two fibers here, even
           though this run's timing never actually overlapped them *)
        h.Race_api.write "unguarded";
        Sim.Mutex_r.lock m;
        h.Race_api.write "guarded";
        Sim.delay sim 10;
        Sim.Mutex_r.unlock m)
  done;
  Sim.run sim;
  let locs = List.map (fun r -> r.Rc.loc) (Rc.races det) in
  Alcotest.(check (list string))
    "mutex orders 'guarded'; 'unguarded' would need the accident of \
     this exact schedule — flagged anyway"
    [ "unguarded" ] locs

(* A park/notify wake-up is a happens-before edge: the notifier's write
   is ordered before what the woken fiber reads next.  Seeded race: the
   same program under a detector whose transfer edge is dropped is
   flagged, so the notify -> park edge is the only thing ordering it. *)
let test_rc_sim_park_notify_edge () =
  let run ~edge =
    let sim = Sim.create () in
    let det =
      Rc.create
        ~fiber:(fun () -> Sim.current_proc sim)
        ~now:(fun () -> Sim.now sim)
        ()
    in
    let h = Rc.hooks det in
    let h =
      if edge then h
      else { h with Race_api.transfer = (fun ~src:_ ~dst:_ -> ()) }
    in
    Sim.set_race sim (Some h);
    let waiter = ref None in
    Sim.spawn sim (fun () ->
        Sim.park ~timeout:1_000 (fun resume -> waiter := Some resume);
        h.Race_api.read "handoff");
    Sim.spawn sim (fun () ->
        Sim.delay sim 10;
        h.Race_api.write "handoff";
        Option.iter (fun resume -> resume ()) !waiter);
    Sim.run sim;
    List.map (fun r -> r.Rc.loc) (Rc.races det)
  in
  Alcotest.(check (list string)) "the notify orders the handoff" []
    (run ~edge:true);
  Alcotest.(check (list string)) "without the edge the handoff races"
    [ "handoff" ] (run ~edge:false)

(* ------------------------------------------------------------------ *)
(* Equivalence and partial-order properties *)

(* Decode an int list into a program over 3 fibers, 2 plain locations
   and 2 sync objects, with fork/transfer mixed in. *)
let run_program mode ops =
  let fib = ref 0 in
  let det = Rc.create ~mode ~fiber:(fun () -> !fib) ~now:(fun () -> 0) () in
  let h = Rc.hooks det in
  List.iter
    (fun code ->
      let code = abs code in
      let f = code mod 3 in
      fib := f;
      let loc = "l" ^ string_of_int (code / 3 mod 2) in
      let sync = "s" ^ string_of_int (code / 6 mod 2) in
      match code / 12 mod 7 with
      | 0 -> h.Race_api.read loc
      | 1 -> h.Race_api.write loc
      | 2 -> h.Race_api.acquire sync
      | 3 -> h.Race_api.release sync
      | 4 -> h.Race_api.rmw sync
      | 5 -> h.Race_api.fork ~parent:f ~child:((f + 1) mod 3)
      | _ -> h.Race_api.transfer ~src:f ~dst:((f + 2) mod 3))
    ops;
  det

(* FastTrack's epoch compression must be observationally equivalent to
   the textbook full-VC detector: same locations tainted, by the same
   kind of access pair, at the same op — only the retained [prior]
   witness may differ. *)
let prop_fasttrack_equals_naive =
  QCheck.Test.make ~name:"fasttrack == naive full-VC detector" ~count:500
    QCheck.(list_of_size Gen.(0 -- 60) (int_bound 2000))
    (fun ops ->
      let verdict mode =
        List.map
          (fun r -> (r.Rc.loc, r.Rc.kind, r.Rc.cur.Rc.op, r.Rc.cur.Rc.fiber))
          (Rc.races (run_program mode ops))
        |> List.sort compare
      in
      verdict Rc.Fasttrack = verdict Rc.Naive_vc)

let vc_of_list l =
  List.fold_left
    (fun c (f, v) -> Rc.Vc.set c (abs f mod 5) (abs v mod 8))
    Rc.Vc.empty l

let prop_vc_partial_order =
  QCheck.Test.make ~name:"vector-clock join/leq partial-order laws"
    ~count:500
    QCheck.(
      triple
        (small_list (pair small_int small_int))
        (small_list (pair small_int small_int))
        (small_list (pair small_int small_int)))
    (fun (la, lb, lc) ->
      let a = vc_of_list la and b = vc_of_list lb and c = vc_of_list lc in
      let open Rc.Vc in
      equal (join a b) (join b a)
      && equal (join a (join b c)) (join (join a b) c)
      && equal (join a a) a
      && leq a (join a b)
      && leq a a
      && ((not (leq a b)) || not (leq b a) || equal a b)
      && ((not (leq a b)) || not (leq b c) || leq a c)
      && leq (tick a 1) (join (tick a 1) b)
      && not (leq (tick a 1) a))

let () =
  Alcotest.run "check"
    [
      ( "pmcheck",
        [
          Alcotest.test_case "write-ahead breach classified" `Quick
            test_write_ahead;
          Alcotest.test_case "clean commit protocol is silent" `Quick
            test_clean_commit_protocol;
          Alcotest.test_case "truncation racing unfenced data" `Quick
            test_trunc_unfenced;
          Alcotest.test_case "unlogged in-region store" `Quick
            test_unlogged_store;
          Alcotest.test_case "read of never-initialized word" `Quick
            test_uninit_read;
          Alcotest.test_case "fence that ordered nothing" `Quick
            test_redundant_fence;
          Alcotest.test_case "silent on a clean workload" `Quick
            test_sanitizer_silent_on_clean_run;
        ] );
      ( "pmfsck",
        [
          Alcotest.test_case "overlapping region extents" `Quick
            test_fsck_region_overlap;
          Alcotest.test_case "leaked allocation" `Quick test_fsck_leak;
          Alcotest.test_case "large-chunk boundary tag" `Quick
            test_fsck_large_chunk_footer;
          Alcotest.test_case "allocation bit beyond block count" `Quick
            test_fsck_bitmap_bit_beyond_blocks;
          Alcotest.test_case "log head out of range" `Quick
            test_fsck_log_head_out_of_range;
          Alcotest.test_case "hash table bucket count" `Quick
            test_fsck_phashtable_bucket_count;
          Alcotest.test_case "clean image, zero mutations" `Quick
            test_fsck_clean_and_readonly;
        ] );
      ( "racecheck",
        [
          Alcotest.test_case "unordered writes race" `Quick
            test_rc_unordered_writes_race;
          Alcotest.test_case "read/write kinds classified" `Quick
            test_rc_read_write_kinds;
          Alcotest.test_case "tainted location reported once" `Quick
            test_rc_tainted_loc_reported_once;
          Alcotest.test_case "fork edge" `Quick test_rc_fork_edge;
          Alcotest.test_case "suspend/resume transfer edge" `Quick
            test_rc_transfer_edge;
          Alcotest.test_case "lock discipline" `Quick test_rc_lock_discipline;
          Alcotest.test_case "atomics: edges, never reports" `Quick
            test_rc_atomics_never_reported;
          Alcotest.test_case "channel handoff discipline" `Quick
            test_rc_channel_handoff;
          Alcotest.test_case "clean program is silent" `Quick
            test_rc_clean_program_silent;
          Alcotest.test_case "sim service wake token edge" `Quick
            test_rc_sim_service_token;
          Alcotest.test_case "sim mutex edges" `Quick test_rc_sim_mutex_edges;
          Alcotest.test_case "sim park/notify edge" `Quick
            test_rc_sim_park_notify_edge;
          QCheck_alcotest.to_alcotest prop_fasttrack_equals_naive;
          QCheck_alcotest.to_alcotest prop_vc_partial_order;
        ] );
    ]
