(* regionctl: inspect a Mnemosyne instance directory.

   Shows what the recovery path sees: the region manager's boot
   statistics, every persistent region with its backing file, the
   pstatic directory, heap occupancy and per-thread transaction logs.

   Usage: regionctl DIR            full inspection (default command)
          regionctl stats DIR      occupancy summary: regions, heap, logs
          regionctl fsck DIR       offline consistency analysis (pmfsck)
*)

open Cmdliner

(* Open [dir] (recovery runs first, exactly as a restart would) and hand
   the instance to [k].  Recovery refuses an image it cannot parse, such
   as a broken chunk chain, with [Failure] or [Invalid_argument]: that
   is a one-line error and exit 2, not an uncaught exception. *)
let with_instance dir k =
  if not (Sys.file_exists dir) then begin
    Printf.eprintf "regionctl: no instance at %s\n" dir;
    1
  end
  else
    match Mnemosyne.open_instance ~dir () with
    | exception (Failure msg | Invalid_argument msg) ->
        Printf.eprintf "regionctl: %s: recovery refused the image: %s\n" dir
          msg;
        2
    | inst -> k inst

let run dir level =
  with_instance dir @@ fun inst ->
    let stats = Mnemosyne.reincarnation_stats inst in
    let pmem = Mnemosyne.pmem inst in
    let mgr = Region.Pmem.manager pmem in
    let v = Mnemosyne.view inst in
    Printf.printf "Mnemosyne instance: %s\n\n" dir;

    let boot = Region.Manager.boot_stats mgr in
    Printf.printf "boot:   %d frames scanned, %d mappings rebuilt (%.1f ms)\n"
      boot.frames_scanned boot.mappings_rebuilt
      (float_of_int boot.boot_ns /. 1e6);
    Printf.printf
      "        %d frames free, %d resident; %d swap-ins, %d swap-outs\n"
      (Region.Manager.free_frames mgr)
      (Region.Manager.resident_frames mgr)
      (Region.Manager.swaps_in mgr) (Region.Manager.swaps_out mgr);
    Printf.printf
      "start:  remap %.2f ms, heap scavenge %.2f ms, %d txn(s) replayed\n\n"
      (float_of_int stats.remap_ns /. 1e6)
      (float_of_int stats.heap_scavenge_ns /. 1e6)
      stats.txns_replayed;

    Printf.printf "regions (excluding the static region):\n";
    let regions = Region.Pmem.regions pmem in
    if regions = [] then Printf.printf "  (none)\n"
    else
      List.iter
        (fun (addr, len) ->
          (* a region's file stays empty until a page is written to it *)
          let file, bytes = Region.Pmem.backing_file pmem addr in
          Printf.printf "  %#014x  %8d bytes  (%d pages)  file %s: %s\n" addr
            len
            (Region.Layout.pages_for len)
            file
            (if bytes = 0 then "none" else Printf.sprintf "%d bytes" bytes))
        regions;

    Printf.printf "\npstatic variables:\n";
    let count = ref 0 in
    Region.Pstatic.iter v (fun { name; addr; len; _ } ->
        incr count;
        let value = Region.Pmem.load v addr in
        let name =
          match name with
          | Ok name -> name
          | Error n -> Printf.sprintf "<name length %d>" n
        in
        Printf.printf "  %-24s %#014x  %4d bytes  first word %#Lx\n" name
          addr len value);
    if !count = 0 then Printf.printf "  (none)\n";

    Printf.printf "\nSCM device: %d frames, %d total media writes\n"
      (Scm.Scm_device.nframes (Mnemosyne.machine inst).dev)
      (Scm.Scm_device.total_writes (Mnemosyne.machine inst).dev);
    let dev = (Mnemosyne.machine inst).dev in
    let hottest = ref (0, 0) in
    for f = 0 to Scm.Scm_device.nframes dev - 1 do
      let w = Scm.Scm_device.write_count dev f in
      if w > snd !hottest then hottest := (f, w)
    done;
    let hot_frame, hot_writes = !hottest in
    Printf.printf
      "wear:   hottest frame %d with %d writes%s\n"
      hot_frame hot_writes
      (if level then "" else " (run with --level to remap hot frames)");
    if level then begin
      let moved = Region.Pmem.wear_level v ~threshold:1.5 in
      Printf.printf "wear:   leveling pass migrated %d page(s)\n" moved
    end;
    Mnemosyne.close inst;
    0

(* stats: region + heap + log occupancy, plus the recovery-time
   observability counters.  --json emits the same facts as one object,
   with the metrics registry snapshot embedded under "metrics". *)
let run_stats dir json =
  with_instance dir @@ fun inst ->
    let pmem = Mnemosyne.pmem inst in
    let mgr = Region.Pmem.manager pmem in
    let dev = (Mnemosyne.machine inst).dev in
    let nframes = Scm.Scm_device.nframes dev in
    let free = Region.Manager.free_frames mgr in
    let resident = Region.Manager.resident_frames mgr in
    let regions = Region.Pmem.regions pmem in
    let region_bytes = List.fold_left (fun acc (_, len) -> acc + len) 0 regions in
    let occ = Pmheap.Heap.occupancy (Mnemosyne.heap inst) in
    let logs = Mtm.Txn.log_usage (Mnemosyne.pool inst) in
    (* Serving tenants: any pstatic root named "serve.tenant.NN" (the
       layout contract in Serve.tenant_root_prefix) is a per-tenant B+
       tree; attach each read-only and count keys — per-tenant region
       occupancy without the serving front-end running. *)
    let tenants =
      let acc = ref [] in
      let prefix = Serve.tenant_root_prefix in
      Region.Pstatic.iter (Mnemosyne.view inst) (fun { name; addr; _ } ->
          match name with
          | Ok name when String.starts_with ~prefix name ->
              acc := (name, addr) :: !acc
          | _ -> ());
      List.sort compare !acc
    in
    let tenant_occ =
      List.map
        (fun (name, addr) ->
          let keys =
            Mnemosyne.atomically inst (fun tx ->
                let root = Int64.to_int (Mtm.Txn.load tx addr) in
                if root = 0 then 0
                else
                  Pstruct.Bp_tree.length tx (Pstruct.Bp_tree.attach tx ~root))
          in
          (name, addr, keys))
        tenants
    in
    if json then begin
      let buf = Buffer.create 2048 in
      Buffer.add_string buf "{\n";
      Printf.bprintf buf
        "  \"frames\": {\"total\": %d, \"free\": %d, \"resident\": %d},\n"
        nframes free resident;
      Printf.bprintf buf
        "  \"regions\": {\"mapped\": %d, \"bytes\": %d},\n"
        (List.length regions) region_bytes;
      Printf.bprintf buf
        "  \"heap\": {\"superblocks\": %d, \"assigned_superblocks\": %d, \
         \"large_bytes\": %d, \"large_free_bytes\": %d},\n"
        occ.superblocks occ.assigned_superblocks occ.large_bytes
        occ.large_free_bytes;
      Buffer.add_string buf "  \"logs\": [";
      List.iteri
        (fun i u ->
          if i > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf
            "{\"slot\": %d, \"base\": %d, \"cap_words\": %d, \"used\": %d}"
            u.Mtm.Txn.slot u.Mtm.Txn.base u.Mtm.Txn.cap_words u.Mtm.Txn.used)
        logs;
      Buffer.add_string buf "],\n";
      Buffer.add_string buf "  \"tenants\": [";
      List.iteri
        (fun i (name, addr, keys) ->
          if i > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf "{\"root\": %s, \"addr\": %d, \"keys\": %d}"
            (Obs.Json.string name) addr keys)
        tenant_occ;
      Buffer.add_string buf "],\n";
      Printf.bprintf buf "  \"metrics\": %s\n}"
        (String.trim (Obs.Metrics.to_json (Mnemosyne.obs inst).Obs.metrics));
      print_endline (Buffer.contents buf)
    end
    else begin
      Printf.printf "Mnemosyne instance: %s\n\n" dir;
      Printf.printf
        "frames: %d total, %d free, %d resident (%.1f%% occupied)\n" nframes
        free resident
        (100.0 *. float_of_int (nframes - free) /. float_of_int nframes);
      Printf.printf "regions: %d mapped, %d bytes total\n"
        (List.length regions) region_bytes;
      Printf.printf
        "heap:   %d/%d superblocks assigned; large area %d bytes, %d free \
         (%.1f%% used)\n"
        occ.assigned_superblocks occ.superblocks occ.large_bytes
        occ.large_free_bytes
        (100.0
        *. float_of_int (occ.large_bytes - occ.large_free_bytes)
        /. float_of_int (max 1 occ.large_bytes));
      Printf.printf "transaction logs:\n";
      List.iter
        (fun u ->
          Printf.printf
            "  slot %d  base %#014x  %d/%d words used (%.1f%%)\n"
            u.Mtm.Txn.slot u.Mtm.Txn.base u.Mtm.Txn.used u.Mtm.Txn.cap_words
            (100.0 *. float_of_int u.Mtm.Txn.used
            /. float_of_int u.Mtm.Txn.cap_words))
        logs;
      if tenant_occ <> [] then begin
        Printf.printf "serving tenants (pstatic %s*):\n"
          Serve.tenant_root_prefix;
        List.iter
          (fun (name, addr, keys) ->
            Printf.printf "  %-18s root slot %#014x  %6d keys\n" name addr
              keys)
          tenant_occ
      end;
      Printf.printf "\ncounters since open (recovery path):\n";
      print_string (Obs.Metrics.dump (Mnemosyne.obs inst).Obs.metrics)
    end;
    Mnemosyne.close inst;
    0

(* fsck: analyze the recovered image read-only. *)
let run_fsck dir json =
  with_instance dir @@ fun inst ->
    let report = Check.Pmfsck.run (Mnemosyne.view inst) in
    if json then print_endline (Check.Pmfsck.to_json report)
    else print_string (Check.Pmfsck.render report);
    (* No [close]: fsck must leave the image exactly as it found it. *)
    if Check.Pmfsck.ok report then 0 else 2

(* Every subcommand builds its arguments fresh: a single Arg value
   shared between subcommands means one flag serving every parse, so
   state set while dispatching one subcommand can leak into the next
   (and documentation edits to "the" flag silently apply everywhere).
   Factories keep each Cmd.v self-contained. *)
let dir () =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Instance directory.")

let json ~what () =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:(Printf.sprintf "Print the %s as JSON instead of text." what))

let level () =
  Arg.(
    value & flag
    & info [ "level" ]
        ~doc:"Run a wear-leveling pass over hot frames before closing.")

let inspect_term = Term.(const run $ dir () $ level ())

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Full inspection (the default command)")
    inspect_term

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Region, heap and log occupancy summary")
    Term.(const run_stats $ dir () $ json ~what:"occupancy summary" ())

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Offline consistency analysis of the instance's persistent image \
          (read-only; exits non-zero on findings)")
    Term.(const run_fsck $ dir () $ json ~what:"consistency report" ())

let cmd =
  Cmd.group ~default:inspect_term
    (Cmd.info "regionctl" ~doc:"Inspect a Mnemosyne instance")
    [ inspect_cmd; stats_cmd; fsck_cmd ]

(* Back-compat: `regionctl DIR` (no subcommand) still inspects. *)
let () =
  let argv =
    let a = Sys.argv in
    if
      Array.length a > 1
      && (not (List.mem a.(1) [ "inspect"; "stats"; "fsck" ]))
      && String.length a.(1) > 0
      && a.(1).[0] <> '-'
    then
      Array.concat
        [ [| a.(0); "inspect" |]; Array.sub a 1 (Array.length a - 1) ]
    else a
  in
  exit (Cmd.eval' ~argv cmd)
