(* Tests for the log library: bit-stream packing, the tornbit RAWL
   (append/flush/truncate/recovery, torn-write detection, wraparound)
   and the commit-record baseline log. *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemolog" "" in
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

(* A full persistent-memory stack in [dir]; returns (machine, view). *)
let stack ?(nframes = 256) ?(seed = 5) dir =
  let m = Scm.Env.make_machine ~seed ~nframes () in
  let backing = Region.Backing_store.open_dir dir in
  let t = Region.Pmem.open_instance m backing in
  (m, Region.Pmem.default_view t)

(* Simulate process death + reboot on the same device: volatile state is
   wiped by the crash; rebuild the machine wrapper and reopen. *)
let reboot (m : Scm.Env.machine) dir =
  let m' = Scm.Env.machine_of_device m.dev in
  let backing = Region.Backing_store.open_dir dir in
  let t = Region.Pmem.open_instance m' backing in
  (m', Region.Pmem.default_view t)

let i64_array = Alcotest.(array int64)

let record_list = Alcotest.(list (array int64))

(* ------------------------------------------------------------------ *)
(* Bitstream *)

let test_stored_words_for () =
  Alcotest.(check int) "1 word" 2 (Pmlog.Bitstream.stored_words_for 1);
  Alcotest.(check int) "63 words" 64 (Pmlog.Bitstream.stored_words_for 63);
  Alcotest.(check int) "64 words" 66 (Pmlog.Bitstream.stored_words_for 64)

let pack_unpack words =
  let chunks = ref [] in
  let packer =
    Pmlog.Bitstream.Packer.create ~emit:(fun c -> chunks := c :: !chunks)
  in
  Array.iter (Pmlog.Bitstream.Packer.push packer) words;
  Pmlog.Bitstream.Packer.flush packer;
  let chunks = List.rev !chunks in
  List.iter
    (fun c ->
      Alcotest.(check bool) "bit 63 clear in emitted chunk" false
        (Scm.Word.bit c 63))
    chunks;
  let unp = Pmlog.Bitstream.Unpacker.create () in
  let out = ref [] in
  List.iter
    (fun c ->
      Pmlog.Bitstream.Unpacker.feed unp c;
      let rec drain () =
        match Pmlog.Bitstream.Unpacker.take unp with
        | Some w ->
            out := w :: !out;
            drain ()
        | None -> ()
      in
      drain ())
    chunks;
  (List.length chunks, Array.of_list (List.rev !out))

let test_bitstream_roundtrip_small () =
  let words = [| 1L; -1L; 0x0123456789abcdefL; 0L; Int64.min_int |] in
  let nchunks, out = pack_unpack words in
  Alcotest.(check int) "chunk count" (Pmlog.Bitstream.stored_words_for 5)
    nchunks;
  Alcotest.check i64_array "roundtrip"
    words (Array.sub out 0 5)

let prop_bitstream_roundtrip =
  QCheck.Test.make ~name:"bitstream pack/unpack roundtrip" ~count:200
    QCheck.(array_of_size Gen.(1 -- 200) int64)
    (fun words ->
      let nchunks, out = pack_unpack words in
      nchunks = Pmlog.Bitstream.stored_words_for (Array.length words)
      && Array.length out >= Array.length words
      && Array.for_all2 ( = ) words
           (Array.sub out 0 (Array.length words)))

(* ------------------------------------------------------------------ *)
(* RAWL *)

let make_log v ~cap_words =
  let base = Region.Pmem.pmap v (Pmlog.Rawl.region_bytes_for ~cap_words) in
  (base, Pmlog.Rawl.create v ~base ~cap_words)

let test_rawl_append_and_recover () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:256 in
      let r1 = [| 1L; 2L; 3L |] and r2 = [| -1L |] and r3 = Array.make 20 7L in
      List.iter
        (fun r ->
          match Pmlog.Rawl.append log r with
          | Pmlog.Rawl.Appended _ -> ()
          | Pmlog.Rawl.Full -> Alcotest.fail "unexpected Full")
        [ r1; r2; r3 ];
      Pmlog.Rawl.flush log;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "all records recovered" [ r1; r2; r3 ]
        records)

let test_rawl_unflushed_append_lost () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:128 in
      (match Pmlog.Rawl.append log [| 5L; 6L |] with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "Full");
      Pmlog.Rawl.flush log;
      (match Pmlog.Rawl.append log [| 9L |] with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "Full");
      (* no flush: second record is still in the WC buffers *)
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
        m;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "only the flushed record" [ [| 5L; 6L |] ]
        records)

let test_rawl_torn_append_detected () =
  (* Crash with a random subset of the pending streaming writes applied:
     recovery must never surface a corrupted record — each recovered
     record matches what was appended, and they form a prefix. *)
  let failures = ref 0 in
  for seed = 0 to 49 do
    with_tmpdir (fun dir ->
        let m, v = stack ~seed dir in
        let base, log = make_log v ~cap_words:512 in
        let appended =
          List.init 5 (fun i -> Array.init (3 + i) (fun j ->
              Int64.of_int ((100 * i) + j)))
        in
        List.iteri
          (fun i r ->
            (match Pmlog.Rawl.append log r with
            | Pmlog.Rawl.Appended _ -> ()
            | Pmlog.Rawl.Full -> Alcotest.fail "Full");
            (* flush the first three; leave the last two in flight *)
            if i = 2 then Pmlog.Rawl.flush log)
          appended;
        Scm.Crash.inject
          ~policy:
            { cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_random_subset }
          m;
        let _, v' = reboot m dir in
        let _, records = Pmlog.Rawl.attach v' ~base in
        if List.length records < 3 then incr failures;
        (* recovered records must be an exact prefix of what was appended *)
        List.iteri
          (fun i r ->
            Alcotest.check i64_array
              (Printf.sprintf "seed %d record %d intact" seed i)
              (List.nth appended i) r)
          records)
  done;
  Alcotest.(check int) "flushed records always recovered" 0 !failures

let test_rawl_bit_flip_injection () =
  (* The paper's reliability test: inject bit flips into the log before
     a crash; recovery must stop at the corrupted word. *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:128 in
      ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
      ignore (Pmlog.Rawl.append log [| 3L; 4L |]);
      Pmlog.Rawl.flush log;
      (* Flip the torn bit of the second record's first stored word.
         Record 1 spans stored_words_for(3) = 4 words; buffer starts at
         base + 64. *)
      let slot = base + 64 + (8 * Pmlog.Bitstream.stored_words_for 3) in
      let w = Region.Pmem.load v slot in
      Region.Pmem.wtstore v slot (Scm.Word.set_bit w 63 (not (Scm.Word.bit w 63)));
      Region.Pmem.fence v;
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "scan stops at the flipped bit"
        [ [| 1L; 2L |] ]
        records)

let test_rawl_wraparound_many_passes () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:64 in
      (* Append/truncate enough to wrap the buffer several times. *)
      for round = 1 to 40 do
        (match Pmlog.Rawl.append log (Array.make 10 (Int64.of_int round)) with
        | Pmlog.Rawl.Appended _ -> ()
        | Pmlog.Rawl.Full -> Alcotest.fail "unexpected Full");
        Pmlog.Rawl.flush log;
        if round mod 2 = 1 then Pmlog.Rawl.truncate_all log
      done;
      (* One final flushed record after the last truncation. *)
      ignore (Pmlog.Rawl.append log [| 4242L |]);
      Pmlog.Rawl.flush log;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "post-wrap recovery"
        [ Array.make 10 40L; [| 4242L |] ]
        records)

let test_rawl_full_and_space_accounting () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, log = make_log v ~cap_words:16 in
      Alcotest.(check int) "empty" 0 (Pmlog.Rawl.used_words log);
      Alcotest.(check int) "free" 15 (Pmlog.Rawl.free_words log);
      (match Pmlog.Rawl.append log (Array.make 8 1L) with
      | Pmlog.Rawl.Appended span ->
          Alcotest.(check int) "span" (Pmlog.Bitstream.stored_words_for 9) span
      | Pmlog.Rawl.Full -> Alcotest.fail "should fit");
      (match Pmlog.Rawl.append log (Array.make 8 1L) with
      | Pmlog.Rawl.Full -> ()
      | Pmlog.Rawl.Appended _ -> Alcotest.fail "should be Full");
      Pmlog.Rawl.truncate_all log;
      Alcotest.(check int) "free after truncate" 15
        (Pmlog.Rawl.free_words log);
      match Pmlog.Rawl.append log (Array.make 8 1L) with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "fits again")

let test_rawl_advance_head_partial () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:256 in
      let spans =
        List.map
          (fun r ->
            match Pmlog.Rawl.append log r with
            | Pmlog.Rawl.Appended s -> s
            | Pmlog.Rawl.Full -> Alcotest.fail "Full")
          [ [| 1L |]; [| 2L |]; [| 3L |] ]
      in
      Pmlog.Rawl.flush log;
      (* Consume just the first record. *)
      Pmlog.Rawl.advance_head_group [ (log, 1, List.hd spans) ];
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "first record consumed"
        [ [| 2L |]; [| 3L |] ]
        records)

let test_rawl_double_crash_after_recovery () =
  (* A partial append discarded at recovery must not resurface after a
     second crash (the stale-suffix erasure). *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:128 in
      ignore (Pmlog.Rawl.append log [| 10L; 11L |]);
      Pmlog.Rawl.flush log;
      ignore (Pmlog.Rawl.append log [| 20L; 21L; 22L; 23L |]);
      (* crash with only part of the second append applied *)
      Scm.Crash.inject
        ~policy:
          { cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_random_subset }
        m;
      let m2, v2 = reboot m dir in
      let log2, records1 = Pmlog.Rawl.attach v2 ~base in
      Alcotest.(check bool) "at most the flushed record" true
        (List.length records1 <= 1);
      (* Continue appending after recovery, then crash again cleanly. *)
      ignore (Pmlog.Rawl.append log2 [| 30L |]);
      Pmlog.Rawl.flush log2;
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
        m2;
      let _, v3 = reboot m2 dir in
      let _, records2 = Pmlog.Rawl.attach v3 ~base in
      Alcotest.check record_list "old records + the new one, no garbage"
        (records1 @ [ [| 30L |] ])
        records2)

let prop_rawl_recovery_prefix =
  (* For random record batches, random flush points and adversarial
     crashes: recovery yields an uncorrupted prefix (at least through
     the last flush). *)
  QCheck.Test.make ~name:"rawl recovery yields intact flushed prefix"
    ~count:60
    QCheck.(
      pair (int_bound 1000)
        (list_of_size Gen.(1 -- 8) (array_of_size Gen.(1 -- 12) int64)))
    (fun (seed, batch) ->
      QCheck.assume (batch <> []);
      with_tmpdir (fun dir ->
          let m, v = stack ~seed dir in
          let base, log = make_log v ~cap_words:1024 in
          let flush_at = seed mod List.length batch in
          List.iteri
            (fun i r ->
              (match Pmlog.Rawl.append log r with
              | Pmlog.Rawl.Appended _ -> ()
              | Pmlog.Rawl.Full -> QCheck.assume_fail ());
              if i = flush_at then Pmlog.Rawl.flush log)
            batch;
          Scm.Crash.inject m;
          let _, v' = reboot m dir in
          let _, records = Pmlog.Rawl.attach v' ~base in
          List.length records >= flush_at + 1
          && List.for_all2 ( = )
               records
               (List.filteri (fun i _ -> i < List.length records) batch)))

let test_rawl_tornbit_rotation () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let cap_words = 32 in
      let base = Region.Pmem.pmap v (Pmlog.Rawl.region_bytes_for ~cap_words) in
      let log = Pmlog.Rawl.create ~rotate_torn_bit:true v ~base ~cap_words in
      Alcotest.(check int) "starts at bit 63" 63
        (Pmlog.Rawl.torn_bit_position log);
      (* push enough passes through the buffer to trigger a rotation:
         each round writes ~14 of the 31 usable words *)
      let rounds = 4 * Pmlog.Rawl.rotate_period in
      for round = 1 to rounds do
        (match Pmlog.Rawl.append log (Array.make 12 (Int64.of_int round)) with
        | Pmlog.Rawl.Appended _ -> ()
        | Pmlog.Rawl.Full -> Alcotest.fail "unexpected Full");
        Pmlog.Rawl.flush log;
        Pmlog.Rawl.truncate_all log
      done;
      Alcotest.(check bool) "torn bit moved" true
        (Pmlog.Rawl.torn_bit_position log <> 63);
      (* a record written under the rotated position still recovers,
         including across a crash and with arbitrary payload bits in the
         old torn-bit column *)
      let payload = Array.init 10 (fun i -> Int64.lognot (Int64.of_int i)) in
      ignore (Pmlog.Rawl.append log payload);
      Pmlog.Rawl.flush log;
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let log', records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "recovered under rotated torn bit"
        [ payload ] records;
      Alcotest.(check int) "position recovered from the head word"
        (Pmlog.Rawl.torn_bit_position log)
        (Pmlog.Rawl.torn_bit_position log'))

let prop_rawl_rotation_roundtrip =
  QCheck.Test.make ~name:"rotating rawl round-trips arbitrary payloads"
    ~count:40
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(1 -- 5)
                                     (array_of_size Gen.(1 -- 6) int64)))
    (fun (seed, batch) ->
      QCheck.assume (batch <> []);
      with_tmpdir (fun dir ->
          let _, v = stack ~seed dir in
          let cap_words = 64 in
          let base =
            Region.Pmem.pmap v (Pmlog.Rawl.region_bytes_for ~cap_words)
          in
          let log =
            Pmlog.Rawl.create ~rotate_torn_bit:true v ~base ~cap_words
          in
          (* churn to move the torn bit *)
          for _ = 1 to (seed mod 3) * Pmlog.Rawl.rotate_period * 4 do
            ignore (Pmlog.Rawl.append log [| 1L; 2L; 3L |]);
            Pmlog.Rawl.flush log;
            Pmlog.Rawl.truncate_all log
          done;
          List.iter
            (fun r ->
              match Pmlog.Rawl.append log r with
              | Pmlog.Rawl.Appended _ -> ()
              | Pmlog.Rawl.Full -> QCheck.assume_fail ())
            batch;
          Pmlog.Rawl.flush log;
          let _, records = Pmlog.Rawl.attach v ~base in
          records = batch))

(* ------------------------------------------------------------------ *)
(* Adversarial recovery: hand-planted device states                    *)

(* The 63-bit chunks the packer would emit for [words] — what a record
   of this payload looks like on the device, minus torn bits. *)
let chunks_of words =
  let out = ref [] in
  let p = Pmlog.Bitstream.Packer.create ~emit:(fun c -> out := c :: !out) in
  Array.iter (Pmlog.Bitstream.Packer.push p) words;
  Pmlog.Bitstream.Packer.flush p;
  List.rev !out

(* Hand-write stored words carrying torn bit 1 at position 63 (the
   first pass over a fresh log) at buffer position [pos] — simulating
   the subset of a crashed append's streaming stores that landed. *)
let plant v ~base ~pos chunks =
  List.iteri
    (fun i c ->
      Region.Pmem.wtstore v
        (base + 64 + (8 * (pos + i)))
        (Int64.logor c (Int64.shift_left 1L 63)))
    chunks;
  Region.Pmem.fence v

let test_rawl_max_record_words_boundary () =
  (* append admission, the recovery length-plausibility bound and
     max_record_words must all be the same function of the capacity *)
  for cap_words = 4 to 200 do
    let n = Pmlog.Rawl.max_record_words_for ~cap_words in
    Alcotest.(check bool)
      (Printf.sprintf "cap %d: the max record fits" cap_words)
      true
      (Pmlog.Bitstream.stored_words_for (n + 1) <= cap_words - 1);
    Alcotest.(check bool)
      (Printf.sprintf "cap %d: one more word does not" cap_words)
      true
      (Pmlog.Bitstream.stored_words_for (n + 2) > cap_words - 1)
  done;
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:16 in
      let nmax = Pmlog.Rawl.max_record_words log in
      Alcotest.(check int) "instance bound matches the static one" nmax
        (Pmlog.Rawl.max_record_words_for ~cap_words:16);
      (match Pmlog.Rawl.append log (Array.make (nmax + 1) 9L) with
      | Pmlog.Rawl.Full -> ()
      | Pmlog.Rawl.Appended _ ->
          Alcotest.fail "a record past the bound must be Full");
      let r = Array.init nmax (fun i -> Int64.of_int (i + 1)) in
      (match Pmlog.Rawl.append log r with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "a max-size record must fit");
      Pmlog.Rawl.flush log;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "a max-size record recovers" [ r ] records)

let test_rawl_implausible_length_rejected () =
  (* A stale word can decode to any length.  Recovery must reject every
     length no append could have produced — in particular the first
     value past max_record_words, which an unreconciled (laxer) scan
     bound would admit. *)
  List.iter
    (fun bogus ->
      with_tmpdir (fun dir ->
          let m, v = stack dir in
          let base, log = make_log v ~cap_words:128 in
          ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
          Pmlog.Rawl.flush log;
          (* plant the bogus length word right at the tail (the first
             record spans stored positions 0..3) *)
          plant v ~base ~pos:4 (chunks_of [| Int64.of_int bogus |]);
          Scm.Crash.inject m;
          let _, v' = reboot m dir in
          let _, records = Pmlog.Rawl.attach v' ~base in
          Alcotest.check record_list
            (Printf.sprintf "length %d rejected, no phantom record" bogus)
            [ [| 1L; 2L |] ]
            records))
    [ 0;
      Pmlog.Rawl.max_record_words_for ~cap_words:128 + 1;
      128;
      max_int lsr 8 ]

let test_rawl_stale_word_beyond_gap_erased () =
  (* Crash-landed subsets are arbitrary: a perfectly plausible stale
     record image can sit beyond a gap of never-written words.  The
     recovery erase must sweep the whole free region — an erase that
     stops at the first missing word leaves the stale image in place,
     and once later appends fill the gap the next recovery scan runs
     straight into it and surfaces a phantom record. *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:64 in
      ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
      (* spans positions 0..3 *)
      Pmlog.Rawl.flush log;
      (* a crashed append whose words at positions 4..6 never landed
         but whose tail did: a complete record image at positions 7..9 *)
      plant v ~base ~pos:7 (chunks_of [| 1L; 0xbadL |]);
      Scm.Crash.inject m;
      let m2, v2 = reboot m dir in
      let log2, recs1 = Pmlog.Rawl.attach v2 ~base in
      Alcotest.check record_list "scan stops at the gap" [ [| 1L; 2L |] ]
        recs1;
      (* a new append fills the gap exactly (span 3: positions 4..6) *)
      ignore (Pmlog.Rawl.append log2 [| 7L |]);
      Pmlog.Rawl.flush log2;
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
        m2;
      let _, v3 = reboot m2 dir in
      let _, recs2 = Pmlog.Rawl.attach v3 ~base in
      Alcotest.check record_list "the planted image must not resurface"
        [ [| 1L; 2L |]; [| 7L |] ]
        recs2)

let test_rawl_partial_trailing_wrap () =
  (* A torn append spanning the wrap point, for many crash seeds: the
     recovery must surface either just the flushed prefix or the whole
     record (if every store landed), never garbage — and the recovered
     log must stay usable through another append/crash/recover cycle. *)
  let torn = Array.make 8 6L in
  for seed = 0 to 29 do
    with_tmpdir (fun dir ->
        let m, v = stack ~seed dir in
        let base, log = make_log v ~cap_words:32 in
        (* two flushed+consumed records advance the tail to position 24 *)
        List.iter
          (fun r ->
            (match Pmlog.Rawl.append log r with
            | Pmlog.Rawl.Appended _ -> ()
            | Pmlog.Rawl.Full -> Alcotest.fail "unexpected Full");
            Pmlog.Rawl.flush log;
            Pmlog.Rawl.truncate_all log)
          [ Array.make 10 1L; Array.make 10 2L ];
        ignore (Pmlog.Rawl.append log [| 5L |]);
        (* positions 24..26 *)
        Pmlog.Rawl.flush log;
        (* span 10: positions 27..31, then 0..4 on the next pass *)
        ignore (Pmlog.Rawl.append log torn);
        Scm.Crash.inject
          ~policy:
            { cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_random_subset }
          m;
        let m2, v2 = reboot m dir in
        let log2, recs = Pmlog.Rawl.attach v2 ~base in
        (match recs with
        | [ [| 5L |] ] -> ()
        | [ [| 5L |]; r ] ->
            Alcotest.check i64_array
              (Printf.sprintf "seed %d: complete wrap record" seed)
              torn r
        | _ ->
            Alcotest.failf "seed %d: unexpected recovery (%d records)" seed
              (List.length recs));
        ignore (Pmlog.Rawl.append log2 [| 9L |]);
        Pmlog.Rawl.flush log2;
        Scm.Crash.inject
          ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
          m2;
        let _, v3 = reboot m2 dir in
        let _, recs2 = Pmlog.Rawl.attach v3 ~base in
        Alcotest.check record_list
          (Printf.sprintf "seed %d: second recovery consistent" seed)
          (recs @ [ [| 9L |] ])
          recs2)
  done

let test_rawl_recovery_crash_idempotent () =
  (* Crash the recovery itself — including mid-erase — at every op
     index, then recover again: the second recovery must converge to
     the same records as an uninterrupted one, from every intermediate
     state the erase sweep can be left in. *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:64 in
      ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
      Pmlog.Rawl.flush log;
      (* stale debris for the erase to clean: a lone mid-append word and
         a full record image beyond the gap *)
      plant v ~base ~pos:5 [ List.nth (chunks_of [| 3L; 4L; 5L |]) 1 ];
      plant v ~base ~pos:7 (chunks_of [| 1L; 0xbadL |]);
      Scm.Crash.inject m;
      let dev0 = Scm.Scm_device.copy m.Scm.Env.dev in
      let try_recover dev ~crash_point =
        let m' = Scm.Env.machine_of_device ?crash_point dev in
        let backing = Region.Backing_store.open_dir dir in
        match
          let t = Region.Pmem.open_instance m' backing in
          Pmlog.Rawl.attach (Region.Pmem.default_view t) ~base
        with
        | _, records -> Ok records
        | exception Scm.Crashpoint.Simulated_crash _ ->
            Scm.Crash.inject m';
            Error ()
      in
      let baseline =
        match try_recover (Scm.Scm_device.copy dev0) ~crash_point:None with
        | Ok records -> records
        | Error () -> Alcotest.fail "disarmed recovery crashed"
      in
      Alcotest.check record_list "baseline recovery" [ [| 1L; 2L |] ] baseline;
      let explored = ref 0 in
      let k = ref 1 and finished = ref false in
      while not !finished do
        let dev = Scm.Scm_device.copy dev0 in
        let cp = Scm.Crashpoint.create () in
        Scm.Crashpoint.arm cp ~at:!k;
        (match try_recover dev ~crash_point:(Some cp) with
        | Ok records ->
            (* op !k lies beyond the recovery: the sweep is exhausted *)
            Alcotest.check record_list "uncrashed tail run" baseline records;
            finished := true
        | Error () -> (
            incr explored;
            match try_recover dev ~crash_point:None with
            | Ok records ->
                Alcotest.check record_list
                  (Printf.sprintf "second recovery after a crash at op %d" !k)
                  baseline records
            | Error () -> Alcotest.fail "disarmed recovery crashed"));
        incr k
      done;
      Alcotest.(check bool) "crash points were explored" true (!explored > 0))

(* The erase sweep reads ahead a page at a time until its first
   filler; the result must be what the word-by-word sweep produces.  A
   2,048-word log holds two flushed records of 27 stored words, then
   stale current-parity words are planted in its free region: at the
   first free word, mid-page after clean words, past word 64 of the
   first run, in two adjacent words of one line (the second is read right after the first's filler is
   posted, which drains the buffer), in the last word of the first run,
   which ends at the log's first page boundary (position 504), in the
   first word of the next run, and past that boundary; each alone and
   all together.  In a second layout a 1,931-word
   record was appended and truncated first, so the free region runs
   from position 1959 to the end of the buffer and on from position 0
   in the next pass, whose parity is the other: stale words are
   planted past the wrap, and on both sides of it.  Each image is
   recovered twice from the same state: by [attach], and by the
   recovery scan's loads then a word-by-word sweep written out here,
   as [attach] swept at first.  Both must write the same fillers
   and tick the same crash points, with the log's pages resident and
   with them only in the backing file, and with the write-combining
   buffer empty at the start and holding a store into the free region
   (position 150), which one of the sweep's loads drains.  Last, two
   fibers attach two logs of one instance at once, so their sweeps
   share the instance's read-ahead page: each filler one posts lets the
   other run and read ahead into the page. *)
let test_rawl_erase_read_ahead_matches_wordwise () =
  let cap = 2048 in
  let r1 = [| 1L; 2L; 3L |] and r2 = Array.make 20 7L in
  let big = Array.make 1900 9L in
  let head wrapped =
    if wrapped then Pmlog.Bitstream.stored_words_for (Array.length big + 1)
    else 0
  in
  let slot ~base pos = base + Pmlog.Rawl.header_bytes + (8 * pos) in
  (* torn bit 63 of the pass a free position belongs to: positions
     below the head lie in the next pass *)
  let parity ~wrapped pos = if pos < head wrapped then 0 else 1 in
  let reference v ~base ~wrapped =
    let tail = head wrapped + 27 in
    (* the scan's cached loads fault in the pages they touch *)
    ignore (Region.Pmem.load v (base + 8));
    ignore (Region.Pmem.load v base);
    for pos = head wrapped to tail do
      ignore (Region.Pmem.load v (slot ~base pos))
    done;
    let erased = ref false in
    for k = 0 to cap - 1 - 27 - 1 do
      let pos = (tail + k) mod cap in
      let p = parity ~wrapped pos in
      let _, torn =
        Pmlog.Rawl.extract_torn (Region.Pmem.load_nt v (slot ~base pos)) 63
      in
      if torn = (p = 1) then begin
        Region.Pmem.wtstore v (slot ~base pos)
          (if p = 1 then 0L else Int64.min_int);
        erased := true
      end
    done;
    if !erased then Region.Pmem.fence v
  in
  let places =
    [ ("first free word", [ 27 ]); ("mid-page", [ 100 ]);
      ("past word 64 of a run", [ 27 + 65 ]);
      ("after a filler in its line", [ 200; 201 ]);
      ("a run's last word, at a page boundary", [ 503 ]);
      ("the next run's first word", [ 504 ]);
      ("past a page boundary", [ 600 ]) ]
  in
  let layouts =
    [ (false, places @ [ ("all together", List.concat_map snd places) ]);
      ( true,
        [ ("past the wrap", [ 100 ]);
          ("both sides of the wrap", [ 2000; 100 ]) ] ) ]
  in
  let cases =
    List.concat_map
      (fun (wrapped, places) ->
        List.concat_map
          (fun place ->
            List.concat_map
              (fun resident ->
                List.map
                  (fun pending -> (wrapped, place, resident, pending))
                  [ false; true ])
              [ true; false ])
          places)
      layouts
  in
  List.iter
    (fun (wrapped, (name, stale), resident, pending) ->
      with_tmpdir (fun dir ->
          let m, v = stack dir in
          let base, log = make_log v ~cap_words:cap in
          if wrapped then begin
            ignore (Pmlog.Rawl.append log big);
            Pmlog.Rawl.flush log;
            Pmlog.Rawl.truncate_all log
          end;
          List.iter (fun r -> ignore (Pmlog.Rawl.append log r)) [ r1; r2 ];
          Pmlog.Rawl.flush log;
          List.iter
            (fun pos ->
              (* the current parity of [pos]'s pass: a stale word *)
              Region.Pmem.wtstore v (slot ~base pos)
                (Int64.logor 0x5aL
                   (Int64.shift_left
                      (Int64.of_int (parity ~wrapped pos))
                      63)))
            stale;
          Region.Pmem.fence v;
          let dev0 =
            if resident then begin
              Scm.Crash.inject m;
              m.Scm.Env.dev
            end
            else begin
              Region.Pmem.close v;
              Scm.Scm_device.create ~nframes:256 ()
            end
          in
          let recover f =
            let m' = Scm.Env.machine_of_device (Scm.Scm_device.copy dev0) in
            let t =
              Region.Pmem.open_instance m' (Region.Backing_store.open_dir dir)
            in
            let v' = Region.Pmem.default_view t in
            if pending then Region.Pmem.wtstore v' (slot ~base 150) 0L;
            let c0 = Scm.Crashpoint.count m'.crash_point in
            let result = f v' in
            let ticks = Scm.Crashpoint.count m'.crash_point - c0 in
            let words =
              List.init cap (fun pos -> Region.Pmem.load_nt v' (slot ~base pos))
            in
            (result, ticks, words)
          in
          let label what =
            Printf.sprintf "%s (%s%s): %s" name
              (if resident then "resident" else "backing file")
              (if pending then ", store pending" else "")
              what
          in
          let (log', records), ticks, words =
            recover (fun v' -> Pmlog.Rawl.attach v' ~base)
          in
          let (), ticks', words' =
            recover (fun v' -> reference v' ~base ~wrapped)
          in
          Alcotest.check record_list (label "records") [ r1; r2 ] records;
          Alcotest.(check int) (label "used words") 27
            (Pmlog.Rawl.used_words log');
          Alcotest.(check int) (label "free words") (cap - 1 - 27)
            (Pmlog.Rawl.free_words log');
          Alcotest.(check int) (label "torn bit") 63
            (Pmlog.Rawl.torn_bit_position log');
          Alcotest.(check int) (label "crash points") ticks' ticks;
          Alcotest.(check (list int64)) (label "log words") words' words;
          List.iter
            (fun pos ->
              Alcotest.(check int64)
                (label (Printf.sprintf "filler at %d" pos))
                (if parity ~wrapped pos = 1 then 0L else Int64.min_int)
                (List.nth words pos))
            stale))
    cases;
  let stale_of = [ [ 100; 600 ]; [ 27 + 65; 504 ] ] in
  List.iter
    (fun resident ->
      with_tmpdir (fun dir ->
          let m, v = stack dir in
          let bases =
            List.map
              (fun stale ->
                let base, log = make_log v ~cap_words:cap in
                List.iter (fun r -> ignore (Pmlog.Rawl.append log r)) [ r1; r2 ];
                Pmlog.Rawl.flush log;
                List.iter
                  (fun pos ->
                    Region.Pmem.wtstore v (slot ~base pos)
                      (Int64.logor 0x5aL Int64.min_int))
                  stale;
                Region.Pmem.fence v;
                base)
              stale_of
          in
          let dev0 =
            if resident then begin
              Scm.Crash.inject m;
              m.Scm.Env.dev
            end
            else begin
              Region.Pmem.close v;
              Scm.Scm_device.create ~nframes:256 ()
            end
          in
          let recover sweep =
            let m' = Scm.Env.machine_of_device (Scm.Scm_device.copy dev0) in
            let t =
              Region.Pmem.open_instance m' (Region.Backing_store.open_dir dir)
            in
            let sim = Sim.create () in
            let results = Array.make 2 [] in
            List.iteri
              (fun i base ->
                Sim.spawn sim (fun () ->
                    let env =
                      Scm.Env.view m' ~delay:(Sim.delay sim)
                        ~now:(fun () -> Sim.now sim)
                    in
                    results.(i) <- sweep (Region.Pmem.view t env) ~base))
              bases;
            let c0 = Scm.Crashpoint.count m'.crash_point in
            Sim.run sim;
            let v' = Region.Pmem.default_view t in
            ( results,
              Scm.Crashpoint.count m'.crash_point - c0,
              List.map
                (fun base ->
                  List.init cap (fun pos ->
                      Region.Pmem.load_nt v' (slot ~base pos)))
                bases )
          in
          let label what =
            Printf.sprintf "two fibers (%s): %s"
              (if resident then "resident" else "backing file")
              what
          in
          let records, ticks, words =
            recover (fun v' ~base -> snd (Pmlog.Rawl.attach v' ~base))
          in
          let _, ticks', words' =
            recover (fun v' ~base ->
                reference v' ~base ~wrapped:false;
                [])
          in
          Array.iter
            (Alcotest.check record_list (label "records") [ r1; r2 ])
            records;
          Alcotest.(check int) (label "crash points") ticks' ticks;
          Alcotest.(check (list (list int64))) (label "log words") words' words;
          List.iter2
            (fun stale words ->
              List.iter
                (fun pos ->
                  Alcotest.(check int64)
                    (label (Printf.sprintf "filler at %d" pos))
                    0L (List.nth words pos))
                stale)
            stale_of words))
    [ true; false ]

(* Attaching a clean 2,048-word log allocates a bounded number of minor
   words, not a few per word of its free region. *)
let test_rawl_attach_minor_budget () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, _ = make_log v ~cap_words:2048 in
      let _, v' = reboot m dir in
      let before = Gc.minor_words () in
      let log, records = Pmlog.Rawl.attach v' ~base in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) "no records" 0 (List.length records);
      Alcotest.(check int) "all free" 2047 (Pmlog.Rawl.free_words log);
      if words > 2048. then
        Alcotest.failf "attach allocated %.0f minor words (budget 2048)" words)

(* ------------------------------------------------------------------ *)
(* Commit log *)

let make_clog v ~cap_words =
  let base =
    Region.Pmem.pmap v (Pmlog.Commit_log.region_bytes_for ~cap_words)
  in
  (base, Pmlog.Commit_log.create v ~base ~cap_words)

let test_clog_append_and_recover () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_clog v ~cap_words:128 in
      let r1 = [| 1L; 2L |] and r2 = [| 3L |] in
      (match Pmlog.Commit_log.append log r1 with
      | Pmlog.Commit_log.Appended span -> Alcotest.(check int) "span" 4 span
      | Pmlog.Commit_log.Full -> Alcotest.fail "Full");
      ignore (Pmlog.Commit_log.append log r2);
      let _, v' = reboot m dir in
      let _, records = Pmlog.Commit_log.attach v' ~base in
      Alcotest.check record_list "recovered" [ r1; r2 ] records)

let test_clog_missing_commit_discards () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_clog v ~cap_words:128 in
      ignore (Pmlog.Commit_log.append log [| 7L |]);
      (* Manually fabricate a record whose commit word never landed:
         write header + payload, fence, crash before the commit word. *)
      let pos = base + 64 + (8 * 3) in
      Region.Pmem.wtstore v pos (Int64.logor (Int64.shift_left 0xC3L 56) 2L);
      Region.Pmem.wtstore v (pos + 8) 8L;
      Region.Pmem.wtstore v (pos + 16) 9L;
      Region.Pmem.fence v;
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Commit_log.attach v' ~base in
      Alcotest.check record_list "uncommitted record dropped" [ [| 7L |] ]
        records)

let test_clog_wraparound () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_clog v ~cap_words:32 in
      for round = 1 to 20 do
        (match Pmlog.Commit_log.append log (Array.make 6 (Int64.of_int round))
         with
        | Pmlog.Commit_log.Appended _ -> ()
        | Pmlog.Commit_log.Full -> Alcotest.fail "Full");
        Pmlog.Commit_log.truncate_all log
      done;
      ignore (Pmlog.Commit_log.append log [| 99L |]);
      let _, v' = reboot m dir in
      let _, records = Pmlog.Commit_log.attach v' ~base in
      Alcotest.check record_list "stale pre-wrap data ignored" [ [| 99L |] ]
        records)

let () =
  Alcotest.run "log"
    [
      ( "bitstream",
        [
          Alcotest.test_case "stored_words_for" `Quick test_stored_words_for;
          Alcotest.test_case "roundtrip small" `Quick
            test_bitstream_roundtrip_small;
          QCheck_alcotest.to_alcotest prop_bitstream_roundtrip;
        ] );
      ( "rawl",
        [
          Alcotest.test_case "append and recover" `Quick
            test_rawl_append_and_recover;
          Alcotest.test_case "unflushed append lost" `Quick
            test_rawl_unflushed_append_lost;
          Alcotest.test_case "torn append detected" `Quick
            test_rawl_torn_append_detected;
          Alcotest.test_case "bit flip injection" `Quick
            test_rawl_bit_flip_injection;
          Alcotest.test_case "wraparound many passes" `Quick
            test_rawl_wraparound_many_passes;
          Alcotest.test_case "full and space accounting" `Quick
            test_rawl_full_and_space_accounting;
          Alcotest.test_case "advance head partial" `Quick
            test_rawl_advance_head_partial;
          Alcotest.test_case "double crash after recovery" `Quick
            test_rawl_double_crash_after_recovery;
          Alcotest.test_case "tornbit rotation" `Quick
            test_rawl_tornbit_rotation;
          QCheck_alcotest.to_alcotest prop_rawl_recovery_prefix;
          QCheck_alcotest.to_alcotest prop_rawl_rotation_roundtrip;
        ] );
      ( "rawl-adversarial",
        [
          Alcotest.test_case "max_record_words boundary" `Quick
            test_rawl_max_record_words_boundary;
          Alcotest.test_case "implausible length rejected" `Quick
            test_rawl_implausible_length_rejected;
          Alcotest.test_case "stale word beyond gap erased" `Quick
            test_rawl_stale_word_beyond_gap_erased;
          Alcotest.test_case "partial trailing record over wrap" `Quick
            test_rawl_partial_trailing_wrap;
          Alcotest.test_case "erase read-ahead matches word by word" `Quick
            test_rawl_erase_read_ahead_matches_wordwise;
          Alcotest.test_case "attach minor-word budget" `Quick
            test_rawl_attach_minor_budget;
          Alcotest.test_case "crash during recovery is idempotent" `Quick
            test_rawl_recovery_crash_idempotent;
        ] );
      ( "commit-log",
        [
          Alcotest.test_case "append and recover" `Quick
            test_clog_append_and_recover;
          Alcotest.test_case "missing commit discards" `Quick
            test_clog_missing_commit_discards;
          Alcotest.test_case "wraparound" `Quick test_clog_wraparound;
        ] );
    ]
