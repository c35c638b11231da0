(* CLI tests for regionctl: each subcommand parses its own fresh
   arguments, so a flag given to one subcommand can neither leak into
   nor be required by another — `stats --json` emits JSON while `fsck`
   without the flag stays text, and vice versa. *)

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
let exe =
  if Sys.file_exists "../bin/regionctl.exe" then "../bin/regionctl.exe"
  else "_build/default/bin/regionctl.exe"

let run_cli args =
  let out = Filename.temp_file "regionctl" ".out" in
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
    (contains "/nonexistent/mnemo" out)

let () =
  Alcotest.run "cli"
    [
      ( "regionctl",
        [
          Alcotest.test_case "json flag is per-subcommand" `Quick
            test_json_flag_is_per_subcommand;
          Alcotest.test_case "default command back-compat" `Quick
            test_default_command_back_compat;
          Alcotest.test_case "stats json escapes root names" `Quick
            test_stats_json_escapes_root_names;
          Alcotest.test_case "missing instance fails" `Quick
            test_missing_instance_fails;
        ] );
    ]
