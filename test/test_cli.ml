(* CLI tests.  regionctl: each subcommand parses its own fresh
   arguments, so a flag given to one subcommand can neither leak into
   nor be required by another — `stats --json` emits JSON while `fsck`
   without the flag stays text, and vice versa — and `fsck` exits 0
   clean, 1 on a missing instance, 2 on findings or an image recovery
   refuses.  sched_explore: a
   knob combination the transaction system rejects, or a malformed
   trace, is a one-line error, not an uncaught exception.  bench: an
   unknown argument is an error, and the host gate fails on a key its
   baseline lacks. *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemocli" "" in
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

(* cwd is _build/default/test under `dune runtest`, the project root
   under `dune exec` *)
let exe path =
  let built = Printf.sprintf "../%s.exe" path in
  if Sys.file_exists built then built
  else Printf.sprintf "_build/default/%s.exe" path

let run_exe exe args =
  let out = Filename.temp_file "cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, String.trim s)

let run_cli = run_exe (exe "bin/regionctl")

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A small but real instance: one committed transaction so the stats
   report has log usage and fsck has a heap and a pstatic to walk. *)
let make_instance dir =
  let inst = Mnemosyne.open_instance ~dir () in
  let slot = Mnemosyne.pstatic inst "cli.obj" 8 in
  Mnemosyne.atomically inst (fun tx ->
      let addr = Mtm.Txn.alloc tx 64 ~slot in
      Mtm.Txn.store tx addr 42L);
  Mnemosyne.close inst

let test_json_flag_is_per_subcommand () =
  with_tmpdir (fun dir ->
      make_instance dir;
      (* stats --json: a JSON object with the occupancy keys *)
      let code, out = run_cli [ "stats"; dir; "--json" ] in
      Alcotest.(check int) "stats --json exits 0" 0 code;
      Alcotest.(check bool) "stats --json is JSON" true (starts_with "{" out);
      Alcotest.(check bool) "stats --json has frames" true
        (contains "\"frames\"" out);
      (* fsck without the flag, right after: text, not JSON — the flag
         must not persist across dispatch *)
      let code, out = run_cli [ "fsck"; dir ] in
      Alcotest.(check int) "fsck (clean image) exits 0" 0 code;
      Alcotest.(check bool) "fsck default is text" true
        (starts_with "pmfsck:" out);
      (* and the mirror image: fsck --json then plain stats *)
      let code, out = run_cli [ "fsck"; dir; "--json" ] in
      Alcotest.(check int) "fsck --json exits 0" 0 code;
      Alcotest.(check bool) "fsck --json is JSON" true
        (starts_with "{\"findings\"" out);
      let code, out = run_cli [ "stats"; dir ] in
      Alcotest.(check int) "stats exits 0" 0 code;
      Alcotest.(check bool) "stats default is text" true
        (contains "Mnemosyne instance" out && not (starts_with "{" out)))

let test_default_command_back_compat () =
  with_tmpdir (fun dir ->
      make_instance dir;
      (* `regionctl DIR` with no subcommand still runs the inspection *)
      let code, out = run_cli [ dir ] in
      Alcotest.(check int) "bare dir exits 0" 0 code;
      Alcotest.(check bool) "inspection ran" true
        (contains "Mnemosyne instance" out && contains "pstatic" out))

(* The inspection names each region's backing file and its length:
   "none" on an image nothing was ever written back from, bytes once a
   clean shutdown has written the pages. *)
let test_inspect_names_backing_files () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let pmem = Mnemosyne.pmem inst in
      let files =
        List.map
          (fun (addr, _) -> fst (Region.Pmem.backing_file pmem addr))
          (Region.Pmem.regions pmem)
      in
      (* a crash saves the image and writes no backing file *)
      ignore (Mnemosyne.reincarnate inst);
      Alcotest.(check bool) "a heap and logs" true (List.length files > 1);
      Alcotest.(check string) "the heap's file" "f000002" (List.hd files);
      let code, out = run_cli [ dir ] in
      Alcotest.(check int) "inspect exits 0" 0 code;
      List.iter
        (fun file ->
          Alcotest.(check bool) (file ^ " listed, empty") true
            (contains (Printf.sprintf "file %s: none" file) out))
        files;
      (* the inspection closed the instance, writing its pages back *)
      let code, out = run_cli [ dir ] in
      Alcotest.(check int) "second inspect exits 0" 0 code;
      Alcotest.(check bool) "the heap's file holds pages" true
        (contains "file f000002: " out
        && not (contains "file f000002: none" out)))

(* Tenant root names are read from the image, so `stats --json` must
   escape them: a quote in a pstatic name cannot end the string early. *)
let test_stats_json_escapes_root_names () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      ignore (Mnemosyne.pstatic inst (Serve.tenant_root_prefix ^ "\"q") 8);
      Mnemosyne.close inst;
      let code, out = run_cli [ "stats"; dir; "--json" ] in
      Alcotest.(check int) "stats --json exits 0" 0 code;
      Alcotest.(check bool) "quote escaped" true
        (contains (Printf.sprintf {|"root": "%s\"q"|} Serve.tenant_root_prefix)
           out))

let test_missing_instance_fails () =
  let code, out = run_cli [ "stats"; "/nonexistent/mnemo" ] in
  Alcotest.(check bool) "missing dir is an error" true (code <> 0);
  Alcotest.(check bool) "error names the path" true
    (contains "/nonexistent/mnemo" out);
  let code, out = run_cli [ "fsck"; "/nonexistent/mnemo" ] in
  Alcotest.(check int) "fsck of a missing dir exits 1" 1 code;
  Alcotest.(check bool) "fsck error names the path" true
    (contains "/nonexistent/mnemo" out)

(* The seeded leak of test_check's fsck tests: sever the only root of
   an allocated block with a durable out-of-band store. *)
let test_fsck_findings_exit_2 () =
  with_tmpdir (fun dir ->
      make_instance dir;
      let inst = Mnemosyne.open_instance ~dir () in
      let slot = Mnemosyne.pstatic inst "cli.obj" 8 in
      let v = Mnemosyne.view inst in
      Region.Pmem.wtstore v slot 0L;
      Region.Pmem.fence v;
      Mnemosyne.close inst;
      let code, out = run_cli [ "fsck"; dir ] in
      Alcotest.(check int) "fsck with findings exits 2" 2 code;
      Alcotest.(check bool) "the leak is reported" true (contains "leak" out))

(* A name length no [Pstatic.get] could store, written into the
   directory entry of "cli.obj": inspection lists the entry under an
   empty name instead of reading past it, stats still runs, and fsck
   reports the entry. *)
let test_corrupt_pstatic_name_length () =
  with_tmpdir (fun dir ->
      make_instance dir;
      let inst = Mnemosyne.open_instance ~dir () in
      let v = Mnemosyne.view inst in
      let obj = Mnemosyne.pstatic inst "cli.obj" 8 in
      let entry = ref (-1) in
      Region.Pstatic.iter v (fun e ->
          if e.addr = obj then entry := e.entry_addr);
      Region.Pmem.wtstore v (!entry + 8) (-5L);
      Region.Pmem.fence v;
      Mnemosyne.close inst;
      let code, out = run_cli [ dir ] in
      Alcotest.(check int) "inspect exits 0" 0 code;
      Alcotest.(check bool) "the entry is listed" true
        (contains (Printf.sprintf "%#014x" obj) out);
      let code, _ = run_cli [ "stats"; dir ] in
      Alcotest.(check int) "stats exits 0" 0 code;
      let code, out = run_cli [ "fsck"; dir ] in
      Alcotest.(check int) "fsck exits 2" 2 code;
      Alcotest.(check bool) "the name length is reported" true
        (contains "name length -5" out))

(* An 8-byte header at the start of the large area breaks the chunk
   chain, so recovery refuses the image: every subcommand says so in
   one line and exits 2. *)
let test_refused_image_is_one_line () =
  with_tmpdir (fun dir ->
      make_instance dir;
      let inst = Mnemosyne.open_instance ~dir () in
      let v = Mnemosyne.view inst in
      let hb = Pmheap.Heap.base (Mnemosyne.heap inst) in
      let sbs =
        Int64.to_int (Region.Pmem.load v (Pmheap.Heap.sb_count_addr hb))
      in
      Region.Pmem.wtstore v
        (Pmheap.Heap.sb_area_base hb + (sbs * Pmheap.Hoard.superblock_bytes))
        8L;
      Region.Pmem.fence v;
      Mnemosyne.close inst;
      List.iter
        (fun args ->
          let code, out = run_cli (args @ [ dir ]) in
          let what = String.concat " " ("regionctl" :: args) in
          Alcotest.(check int) (what ^ " exits 2") 2 code;
          Alcotest.(check bool)
            (what ^ " is one line")
            true
            (starts_with
               (Printf.sprintf "regionctl: %s: recovery refused the image: "
                  dir)
               out
            && not (String.contains out '\n')))
        [ []; [ "stats" ]; [ "fsck" ] ])

let test_sched_explore_rejects_bad_knobs () =
  with_tmpdir (fun dir ->
      List.iter
        (fun args ->
          let code, out =
            run_exe (exe "bin/sched_explore")
              (args @ [ "--seeds"; "1"; "--dir"; dir ])
          in
          let what = String.concat " " args in
          Alcotest.(check int) (what ^ " exits 2") 2 code;
          Alcotest.(check bool)
            (what ^ " is one line")
            true
            (starts_with "sched_explore: invalid configuration: " out
            && not (String.contains out '\n')))
        [
          [ "--stripes"; "3" ];
          [ "--lease"; "0" ];
          [ "--threads"; "0" ];
          [ "--group-commit" ];
        ])

(* A malformed trace is a one-line error too, not an uncaught
   exception. *)
let test_sched_explore_rejects_bad_trace () =
  with_tmpdir (fun dir ->
      List.iter
        (fun body ->
          let path = Filename.concat dir "bad.trace" in
          Out_channel.with_open_text path (fun oc ->
              output_string oc
                ("mnemosyne-sched-trace 1\npolicy shuffle\nseed 1\n" ^ body));
          let code, out =
            run_exe (exe "bin/sched_explore") [ "--replay"; path; "--dir"; dir ]
          in
          let what = String.escaped body in
          Alcotest.(check int) (what ^ " exits 2") 2 code;
          Alcotest.(check bool)
            (what ^ " is one line")
            true
            (starts_with "sched_explore: " out
            && not (String.contains out '\n')))
        [ "keys -1\ndraws 0\n"; "keys 0\ndraws -4\n"; "keys 0\ndraws 1\n4 9\n" ])

(* A typo must not run nothing and exit 0, and an expected-output
   file generated from one would pin an empty section. *)
let test_bench_rejects_unknown_args () =
  List.iter
    (fun arg ->
      let code, out = run_exe (exe "bench/main") [ arg ] in
      Alcotest.(check int) (arg ^ " exits 2") 2 code;
      Alcotest.(check bool) (arg ^ " is named") true (contains arg out))
    [ "tabel6"; "--wallclok" ]

(* A section dropped from the baseline must not switch its gate off.
   The crafted baseline puts 1 commit/s on every key, so the host's
   speed never decides the outcome. *)
let test_bench_baseline_lacks_key () =
  with_tmpdir (fun dir ->
      let gate sections =
        let file = Filename.concat dir "baseline.json" in
        Out_channel.with_open_text file (fun oc ->
            Printf.fprintf oc
              "{\"schema\": \"mnemosyne-bench/1\", \"sections\": {%s}}\n"
              (String.concat ", "
                 (List.map
                    (Printf.sprintf "\"%s\": {\"wall_commits_per_s\": 1}")
                    sections)));
        run_exe (exe "bench/main") [ "commit_bench"; "--baseline"; file ]
      in
      let code, _ = gate [ "commit"; "commit_wide"; "readonly" ] in
      Alcotest.(check int) "every key present exits 0" 0 code;
      let code, out = gate [ "commit"; "commit_wide" ] in
      Alcotest.(check int) "a missing key exits 1" 1 code;
      Alcotest.(check bool) "the missing key is named" true
        (contains "readonly.wall_commits_per_s" out))

let () =
  Alcotest.run "cli"
    [
      ( "regionctl",
        [
          Alcotest.test_case "json flag is per-subcommand" `Quick
            test_json_flag_is_per_subcommand;
          Alcotest.test_case "inspect names backing files" `Quick
            test_inspect_names_backing_files;
          Alcotest.test_case "default command back-compat" `Quick
            test_default_command_back_compat;
          Alcotest.test_case "stats json escapes root names" `Quick
            test_stats_json_escapes_root_names;
          Alcotest.test_case "missing instance fails" `Quick
            test_missing_instance_fails;
          Alcotest.test_case "fsck findings exit 2" `Quick
            test_fsck_findings_exit_2;
          Alcotest.test_case "corrupt pstatic name length" `Quick
            test_corrupt_pstatic_name_length;
          Alcotest.test_case "a refused image is a one-line error" `Quick
            test_refused_image_is_one_line;
        ] );
      ( "sched_explore",
        [
          Alcotest.test_case "invalid knobs are a one-line error" `Quick
            test_sched_explore_rejects_bad_knobs;
          Alcotest.test_case "a malformed trace is a one-line error" `Quick
            test_sched_explore_rejects_bad_trace;
        ] );
      ( "bench",
        [
          Alcotest.test_case "unknown arguments are an error" `Quick
            test_bench_rejects_unknown_args;
          Alcotest.test_case "baseline lacking a key fails" `Quick
            test_bench_baseline_lacks_key;
        ] );
    ]
