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

(* Only what [save_image] writes loads: an image whose header frame
   size is not 4096, or whose length is not the header plus [nframes]
   frames, fails instead of loading as a device nothing else agrees
   with. *)
let test_device_image_mismatch () =
  let path = Filename.temp_file "scm" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scm_device.save_image (Scm_device.create ~nframes:2 ()) path;
      let image = In_channel.with_open_bin path In_channel.input_all in
      let rejects name contents =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc contents);
        match Scm_device.load_image path with
        | _ -> Alcotest.failf "%s: the image loaded" name
        | exception Failure _ -> ()
      in
      (* The header is the 8-byte magic, then the frame size and
         [nframes] as 32-bit big-endian words: one 8192-byte frame
         covers the same data. *)
      let header = Bytes.of_string image in
      Bytes.set_int32_be header 8 8192l;
      Bytes.set_int32_be header 12 1l;
      rejects "8192-byte frames" (Bytes.to_string header);
      rejects "trailing bytes" (image ^ "\000");
      rejects "truncated" (String.sub image 0 (String.length image - 8)))

(* The image header: the 8-byte magic, then the frame size and
   [nframes] as 32-bit big-endian words. *)
let image_header nframes =
  let b = Bytes.create 16 in
  Bytes.blit_string "MNEMSCM1" 0 b 0 8;
  Bytes.set_int32_be b 8 4096l;
  Bytes.set_int32_be b 12 (Int32.of_int nframes);
  Bytes.to_string b

(* Bytes that [f] adds to the major heap: what it allocates there
   directly plus what of its minor allocations survives a minor
   collection.  A count of allocations, not of the heap's size, so a
   collection running meanwhile cannot hide any of it. *)
let major_growth f =
  Gc.minor ();
  let _, _, before = Gc.counters () in
  let x = f () in
  Gc.minor ();
  let _, _, after = Gc.counters () in
  ignore (Sys.opaque_identity x);
  int_of_float (after -. before) * (Sys.word_size / 8)

(* A device costs its slot array plus the frames it has written: 16,384
   frames are 64 MiB of address space, and a flat arena would grow the
   heap by all of it. *)
let first_touch_budget = 256 * 1024

let test_device_first_touch_budget () =
  let grown =
    major_growth (fun () ->
        let dev = Scm_device.create ~nframes:16384 () in
        Scm_device.store64 dev 0 1L;
        dev)
  in
  if grown > first_touch_budget then
    Alcotest.failf "a 16384-frame device and one store grew the heap by %d B"
      grown

(* An image of a device that wrote only its first and last frames has
   the full length and the flat layout, loads back within the same
   budget, and is rejected when cut at any frame boundary. *)
let test_device_sparse_image () =
  let nframes = 16384 in
  let last = (nframes * 4096) - 16 in
  let dev = Scm_device.create ~nframes () in
  Scm_device.store64 dev 8 0x1122L;
  Scm_device.store64 dev last 0x3344L;
  let path = Filename.temp_file "scm" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scm_device.save_image dev path;
      let zeros = Bytes.make 4096 '\000' in
      let first_frame = Bytes.copy zeros and last_frame = Bytes.copy zeros in
      Bytes.set_int64_le first_frame 8 0x1122L;
      Bytes.set_int64_le last_frame 4080 0x3344L;
      In_channel.with_open_bin path (fun ic ->
          Alcotest.(check int64) "file length"
            (Int64.of_int (16 + (nframes * 4096)))
            (In_channel.length ic);
          Alcotest.(check string) "header" (image_header nframes)
            (really_input_string ic 16);
          let frame = Bytes.create 4096 in
          for f = 0 to nframes - 1 do
            really_input ic frame 0 4096;
            let expected =
              if f = 0 then first_frame
              else if f = nframes - 1 then last_frame
              else zeros
            in
            if not (Bytes.equal frame expected) then
              Alcotest.failf "frame %d differs from the flat layout" f
          done);
      let loaded = ref None in
      let grown =
        major_growth (fun () -> loaded := Some (Scm_device.load_image path))
      in
      if grown > first_touch_budget then
        Alcotest.failf "loading the image grew the heap by %d B" grown;
      let dev' = Option.get !loaded in
      for w = 0 to (nframes * 512) - 1 do
        if Scm_device.load64 dev' (w * 8) <> Scm_device.load64 dev (w * 8) then
          Alcotest.failf "word %d differs after load" w
      done;
      for f = nframes - 1 downto 0 do
        Unix.truncate path (16 + (f * 4096));
        match Scm_device.load_image path with
        | _ -> Alcotest.failf "the image cut after %d frames loaded" f
        | exception Failure _ -> ()
      done)

(* ------------------------------------------------------------------ *)
(* Device against a flat model *)

type dev_op =
  | Store of int * int64  (** word index, value *)
  | Store_unchecked of int * int64  (** word index, in range or not *)
  | Write of int * int * int  (** address, length, fill seed *)
  | Read of int * int  (** address, length *)
  | Load of int  (** word index *)
  | Mark
  | Undo of int  (** which live mark, newest first, modulo their number *)
  | Copy
  | Save_load

let show_dev_op = function
  | Store (w, v) -> Printf.sprintf "store w%d %Ld" w v
  | Store_unchecked (w, v) -> Printf.sprintf "store_unchecked w%d %Ld" w v
  | Write (a, n, s) -> Printf.sprintf "write %#x+%d (%d)" a n s
  | Read (a, n) -> Printf.sprintf "read %#x+%d" a n
  | Load w -> Printf.sprintf "load w%d" w
  | Mark -> "mark"
  | Undo k -> Printf.sprintf "undo %d" k
  | Copy -> "copy"
  | Save_load -> "save+load"

(* Spans of up to two frames and a bit, at any byte, so that most cross
   at least one frame boundary. *)
let gen_dev_ops nframes =
  let open QCheck.Gen in
  let size = nframes * 4096 in
  let nwords = size / 8 in
  let span =
    int_bound (size - 1) >>= fun a ->
    oneof [ int_bound 16; int_bound 9000 ] >|= fun n -> (a, min n (size - a))
  in
  list_size (int_range 1 60)
    (frequency
       [
         (4, map2 (fun w v -> Store (w, v)) (int_bound (nwords - 1)) ui64);
         ( 3,
           map2
             (fun w v -> Store_unchecked (w, v))
             (int_range (-2) (nwords + 1))
             ui64 );
         (3, map2 (fun (a, n) s -> Write (a, n, s)) span nat);
         (2, map (fun (a, n) -> Read (a, n)) span);
         (2, map (fun w -> Load w) (int_bound (nwords - 1)));
         (1, return Mark);
         (1, map (fun k -> Undo k) small_nat);
         (1, return Copy);
         (1, return Save_load);
       ])

type flat = { data : Bytes.t; wear : int array; mutable total : int }

let flat_copy m =
  { data = Bytes.copy m.data; wear = Array.copy m.wear; total = m.total }

let matches_flat dev m =
  let nframes = Array.length m.wear in
  Scm_device.total_writes dev = m.total
  && List.for_all
       (fun f -> Scm_device.write_count dev f = m.wear.(f))
       (List.init nframes Fun.id)
  && List.for_all
       (fun w ->
         Scm_device.load64 dev (w * 8) = Bytes.get_int64_le m.data (w * 8))
       (List.init (nframes * 512) Fun.id)

(* Every operation applied to a device and to a flat [Bytes] model with
   one wear counter per frame.  Copies and reloads continue the run; the
   device a copy was taken from must keep its contents. *)
let prop_device_matches_flat_model =
  QCheck.Test.make ~name:"matches a flat model" ~count:300
    (QCheck.make
       ~print:(fun (nf, ops) ->
         Printf.sprintf "%d frames: %s" nf
           (String.concat "; " (List.map show_dev_op ops)))
       QCheck.Gen.(
         int_range 3 5 >>= fun nf -> pair (return nf) (gen_dev_ops nf)))
    (fun (nframes, ops) ->
      let size = nframes * 4096 in
      let dev = ref (Scm_device.create ~nframes ()) in
      let m =
        ref
          {
            data = Bytes.make size '\000';
            wear = Array.make nframes 0;
            total = 0;
          }
      in
      let journaling = ref false in
      let marks = ref [] in
      let retired = ref [] in
      let wrote addr =
        !m.wear.(addr / 4096) <- !m.wear.(addr / 4096) + 1;
        !m.total <- !m.total + 1
      in
      let step = function
        | Store (w, v) ->
            Scm_device.store64 !dev (w * 8) v;
            Bytes.set_int64_le !m.data (w * 8) v;
            wrote (w * 8);
            true
        | Store_unchecked (w, v) when w >= 0 && w * 8 < size ->
            Scm_device.store64_unchecked !dev (w * 8) v;
            Bytes.set_int64_le !m.data (w * 8) v;
            wrote (w * 8);
            true
        | Store_unchecked (w, v) -> (
            match Scm_device.store64_unchecked !dev (w * 8) v with
            | () -> false
            | exception Invalid_argument _ -> true)
        | Write (addr, len, seed) ->
            let src =
              Bytes.init len (fun i -> Char.chr ((seed + (7 * i)) land 255))
            in
            Scm_device.write_from !dev addr src 0 len;
            Bytes.blit src 0 !m.data addr len;
            if len > 0 then wrote addr;
            true
        | Read (addr, len) ->
            let dst = Bytes.create len in
            Scm_device.read_into !dev addr dst 0 len;
            Bytes.equal dst (Bytes.sub !m.data addr len)
        | Load w ->
            Scm_device.load64 !dev (w * 8) = Bytes.get_int64_le !m.data (w * 8)
        | Mark ->
            if not !journaling then begin
              Scm_device.journal_start !dev;
              journaling := true
            end;
            marks := (Scm_device.journal_mark !dev, flat_copy !m) :: !marks;
            true
        | Undo _ when !marks = [] -> true
        | Undo k ->
            let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
            marks := drop (k mod List.length !marks) !marks;
            let mark, snap = List.hd !marks in
            Scm_device.journal_undo_to !dev mark;
            m := flat_copy snap;
            true
        | Copy ->
            retired := (!dev, flat_copy !m) :: !retired;
            dev := Scm_device.copy !dev;
            journaling := false;
            marks := [];
            true
        | Save_load ->
            let path = Filename.temp_file "scm" ".img" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                Scm_device.save_image !dev path;
                let image =
                  In_channel.with_open_bin path In_channel.input_all
                in
                dev := Scm_device.load_image path;
                (* wear counters are not part of the image *)
                m := { !m with wear = Array.make nframes 0; total = 0 };
                journaling := false;
                marks := [];
                image = image_header nframes ^ Bytes.to_string !m.data)
      in
      List.for_all step ops
      && matches_flat !dev !m
      && List.for_all (fun (d, snap) -> matches_flat d snap) !retired)

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
  let evictions =
    Obs.Metrics.counter m.obs.Obs.metrics "scm.cache.evictions"
  in
  Alcotest.(check bool) "evictions happened" true
    (Obs.Metrics.counter_value evictions > 0);
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
  Primitives.flush env 64;
  Primitives.fence env

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

(* A default cache holding one line costs a 16-slot table and the
   line: a table allocated at its full 16,384 slots cost 704 KiB. *)
let test_cache_first_touch_budget () =
  let dev = Scm_device.create ~nframes:16384 () in
  let obs = Obs.create () in
  let grown =
    major_growth (fun () ->
        let c = Cache.create ~obs dev in
        Cache.write_word c 0 1L;
        c)
  in
  if grown > 16 * 1024 then
    Alcotest.failf "a default cache holding one line grew the heap by %d B"
      grown

(* ------------------------------------------------------------------ *)
(* The growing table against the cache's semantics *)

type cache_op =
  | C_load of int  (** address *)
  | C_store of int * int64
  | C_flush of int
  | C_wt_invalidate of int
  | C_drop_all

let show_cache_op = function
  | C_load a -> Printf.sprintf "load %#x" a
  | C_store (a, v) -> Printf.sprintf "store %#x %Ld" a v
  | C_flush a -> Printf.sprintf "flush %#x" a
  | C_wt_invalidate a -> Printf.sprintf "wt_invalidate %#x" a
  | C_drop_all -> "drop_all"

(* The cache with no table at all, as a fixed-size table behaves:
   resident lines in a [Hashtbl], the insertion-ordered members array
   with swap-remove, an identically seeded rng drawn only for a victim,
   a flat device, and a count of write-backs (the crash-point ticks). *)
type cache_model = {
  cap : int;
  lines : (int, Bytes.t * bool ref) Hashtbl.t;  (* base -> data, dirty *)
  members : int array;
  mpos : (int, int) Hashtbl.t;  (* base -> index in [members] *)
  mutable n : int;
  rng : Random.State.t;
  mdev : Bytes.t;
  mutable ticks : int;
  mutable victims : int list;  (* newest first *)
}

let model_write_back md base =
  let data, dirty = Hashtbl.find md.lines base in
  if !dirty then begin
    Bytes.blit data 0 md.mdev base 64;
    dirty := false;
    md.ticks <- md.ticks + 1
  end

let model_remove md base =
  let i = Hashtbl.find md.mpos base and last = md.n - 1 in
  let moved = md.members.(last) in
  md.members.(i) <- moved;
  Hashtbl.replace md.mpos moved i;
  Hashtbl.remove md.mpos base;
  Hashtbl.remove md.lines base;
  md.n <- last

let model_line md base =
  match Hashtbl.find_opt md.lines base with
  | Some line -> line
  | None ->
      if md.n >= md.cap then begin
        let victim = md.members.(Random.State.int md.rng md.n) in
        md.victims <- victim :: md.victims;
        model_write_back md victim;
        model_remove md victim
      end;
      let line = (Bytes.sub md.mdev base 64, ref false) in
      Hashtbl.replace md.lines base line;
      md.members.(md.n) <- base;
      Hashtbl.replace md.mpos base md.n;
      md.n <- md.n + 1;
      line

(* Pool line [l] sits at an odd stride through a 1 MiB device, so
   lines a page apart and more share the table. *)
let pool_base l = (l * 61) land 16383 * 64

let gen_cache_case =
  let open QCheck.Gen in
  oneof [ int_range 8 64; int_range 65 1024; int_range 1025 8192 ]
  >>= fun cap ->
  int_range 1 (min 4096 (2 * cap)) >>= fun nlines ->
  let addr = map2 (fun l w -> pool_base l + (8 * w)) (int_bound (nlines - 1)) (int_bound 7) in
  let ops =
    list_size (int_range 1 2000)
      (frequency
         [
           (40, map (fun a -> C_load a) addr);
           (40, map2 (fun a v -> C_store (a, v)) addr ui64);
           (8, map (fun a -> C_flush a) addr);
           (8, map (fun a -> C_wt_invalidate a) addr);
           (1, return C_drop_all);
         ])
  in
  quad (return cap) (return nlines) nat ops

let prop_growing_cache_matches_fixed_table =
  QCheck.Test.make ~name:"growing cache table matches a fixed-size one"
    ~count:100
    (QCheck.make
       ~print:(fun (cap, nlines, seed, ops) ->
         Printf.sprintf "capacity %d, %d lines, seed %d: %s" cap nlines seed
           (String.concat "; " (List.map show_cache_op ops)))
       gen_cache_case)
    (fun (cap, nlines, seed, ops) ->
      let obs = Obs.create ~tracing:true () in
      let cp = Crashpoint.create () in
      let dev = Scm_device.create ~nframes:256 () in
      let c = Cache.create ~capacity_lines:cap ~seed ~obs ~cp dev in
      let md =
        {
          cap;
          lines = Hashtbl.create 64;
          members = Array.make cap (-1);
          mpos = Hashtbl.create 64;
          n = 0;
          rng = Random.State.make [| seed |];
          mdev = Bytes.make (256 * 4096) '\000';
          ticks = 0;
          victims = [];
        }
      in
      let step = function
        | C_load a ->
            let data, _ = model_line md (Cache.line_base a) in
            Cache.read_word c a = Bytes.get_int64_le data (a land 63)
        | C_store (a, v) ->
            Cache.write_word c a v;
            let data, dirty = model_line md (Cache.line_base a) in
            Bytes.set_int64_le data (a land 63) v;
            dirty := true;
            true
        | C_flush a ->
            let base = Cache.line_base a in
            let expected =
              match Hashtbl.find_opt md.lines base with
              | None -> false
              | Some (_, dirty) ->
                  let was = !dirty in
                  model_write_back md base;
                  model_remove md base;
                  was
            in
            Cache.flush_line c a = expected
        | C_wt_invalidate a ->
            Cache.wt_invalidate c a;
            let base = Cache.line_base a in
            if Hashtbl.mem md.lines base then begin
              model_write_back md base;
              model_remove md base
            end;
            true
        | C_drop_all ->
            Cache.drop_all c;
            Hashtbl.reset md.lines;
            Hashtbl.reset md.mpos;
            md.n <- 0;
            true
      in
      let steps_agree = List.for_all step ops in
      let victims =
        List.filter_map
          (fun (e : Obs.Flight.entry) ->
            if e.code = Obs.Trace.(kind_code Cache_evict) then Some e.arg
            else None)
          (Obs.Flight.traced obs.Obs.flight)
      in
      let model_dirty =
        Hashtbl.fold (fun base (_, d) acc -> if !d then base :: acc else acc)
          md.lines []
        |> List.sort compare
      in
      let words_agree = ref true in
      for l = 0 to nlines - 1 do
        for w = 0 to 7 do
          let a = pool_base l + (8 * w) in
          let seen =
            match Hashtbl.find_opt md.lines (pool_base l) with
            | Some (data, _) -> Bytes.get_int64_le data (8 * w)
            | None -> Bytes.get_int64_le md.mdev a
          in
          if
            Cache.peek_word c a <> seen
            || Scm_device.load64 dev a <> Bytes.get_int64_le md.mdev a
          then words_agree := false
        done
      done;
      steps_agree
      && victims = List.rev md.victims
      && Crashpoint.count cp = md.ticks
      && Cache.dirty_lines c = model_dirty
      && !words_agree)

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
  Alcotest.(check int) "wear fully rewound" 0 (Scm_device.total_writes dev)

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
          Alcotest.test_case "mismatched image fails" `Quick
            test_device_image_mismatch;
          Alcotest.test_case "first-touch budget" `Quick
            test_device_first_touch_budget;
          Alcotest.test_case "sparse image" `Quick test_device_sparse_image;
          QCheck_alcotest.to_alcotest prop_device_matches_flat_model;
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
          Alcotest.test_case "cache first-touch budget" `Quick
            test_cache_first_touch_budget;
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
          QCheck_alcotest.to_alcotest prop_growing_cache_matches_fixed_table;
          QCheck_alcotest.to_alcotest prop_crash_word_atomicity;
        ] );
    ]
