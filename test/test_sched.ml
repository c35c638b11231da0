(* End-to-end schedule-exploration tests: the sched_explore harness
   over a real Mnemosyne instance — record/replay fidelity through
   aborts and backoff, the committed regression traces, and a bounded
   fuzz sweep as a serializability regression net. *)

module H = Explore.Sched_harness
module Hist = Mtm.History

let with_tmpdir f =
  let dir = Filename.temp_file "mnemosched" "" in
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

let check_serializable name (o : H.outcome) =
  Alcotest.(check (list string)) (name ^ ": serializable") [] o.H.violations

(* ------------------------------------------------------------------ *)
(* Record -> save -> load -> replay fidelity *)

(* A seed/shape with real contention so the run exercises aborts and
   schedule-routed backoff draws, the hard part of bit-exact replay. *)
let contended ~dir policy =
  { (H.default_cfg ~dir) with H.policy; seed = 11; nslots = 4; zero_lat = true }

let events_digest (o : H.outcome) =
  List.map
    (function
      | Hist.Commit c ->
          Printf.sprintf "C%d@%d[%d/%d]" c.Hist.tid c.Hist.cts
            (Array.length c.Hist.reads)
            (Array.length c.Hist.writes)
      | Hist.Abort { tid; attempt } -> Printf.sprintf "A%d#%d" tid attempt)
    (Hist.events o.H.history)

let test_replay_roundtrip_with_aborts () =
  with_tmpdir (fun dir ->
      let cfg = contended ~dir Sim.Schedule.Seeded_shuffle in
      let o = H.run cfg in
      Alcotest.(check bool) "workload aborted at least once" true
        (o.H.aborts > 0);
      let path = Filename.concat dir "roundtrip.trace" in
      H.save_schedule o cfg path;
      let sched =
        match Sim.Schedule.load path with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let cfg' = H.cfg_of_schedule ~dir sched in
      Alcotest.(check bool) "trace header reconstructs the cfg" true
        (cfg'.H.threads = cfg.H.threads
        && cfg'.H.txns = cfg.H.txns
        && cfg'.H.nslots = cfg.H.nslots
        && cfg'.H.zero_lat = cfg.H.zero_lat
        && cfg'.H.seed = cfg.H.seed);
      let r = H.run ~schedule:sched cfg' in
      Alcotest.(check int) "no leftover decisions" 0 r.H.replay_leftover;
      Alcotest.(check int) "no invented decisions" 0 r.H.replay_extra;
      Alcotest.(check int) "same simulated end time" o.H.sim_ns r.H.sim_ns;
      Alcotest.(check int) "same commits" o.H.commits r.H.commits;
      Alcotest.(check int) "same aborts" o.H.aborts r.H.aborts;
      Alcotest.(check (list string))
        "same history, event for event" (events_digest o) (events_digest r);
      check_serializable "replay" r)

(* ------------------------------------------------------------------ *)
(* Committed regression traces: schedules that broke pre-fix code *)

(* The validate-before-cts race (Txn.commit_redo/commit_undo): found by
   sched_explore under --zero-lat, fixed by re-validating after
   Timestamp.next.  Replaying the pre-fix trace against fixed code
   legitimately diverges once the fix aborts the victim transaction —
   what must hold is that the schedule no longer produces a
   serializability violation.  A trace header carries the run's
   configuration (lease, stripes, group commit, pipeline, pmcheck), so
   the replay re-runs it exactly. *)
let test_regression_traces () =
  (* cwd is test/ under [dune runtest], the project root under
     [dune exec] *)
  let dir =
    if Sys.file_exists "schedules" then "schedules" else "test/schedules"
  in
  let traces =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
  in
  Alcotest.(check bool) "regression traces present" true (traces <> []);
  List.iter
    (fun file ->
      let sched =
        match Sim.Schedule.load (Filename.concat dir file) with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      with_tmpdir (fun tmp ->
          let cfg = H.cfg_of_schedule ~dir:tmp sched in
          let o = H.run ~schedule:sched cfg in
          check_serializable file o))
    traces

(* ------------------------------------------------------------------ *)
(* Bounded fuzz: a serializability regression net in the test suite *)

let fuzz name cfgs =
  List.iter
    (fun (cfg, tag) ->
      let o = H.run cfg in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: committed work" name tag)
        true (o.H.commits > 0);
      check_serializable (Printf.sprintf "%s %s" name tag) o)
    cfgs

let test_fuzz_default_latency () =
  with_tmpdir (fun dir ->
      let base = H.default_cfg ~dir in
      fuzz "default-lat"
        (List.concat_map
           (fun policy ->
             List.map
               (fun seed ->
                 ( { base with H.policy; seed },
                   Printf.sprintf "%s/%d" (Sim.Schedule.policy_name policy)
                     seed ))
               [ 0; 1; 2; 3 ])
           [ Sim.Schedule.Fifo; Sim.Schedule.Seeded_shuffle;
             Sim.Schedule.Priority ]))

let test_fuzz_zero_latency () =
  (* The adversarial mode the validate-before-cts race needed; keep it
     exercised so a reintroduction trips here even if the exact
     regression trace drifts. *)
  with_tmpdir (fun dir ->
      let base =
        { (H.default_cfg ~dir) with H.zero_lat = true; nslots = 8 }
      in
      fuzz "zero-lat"
        (List.concat_map
           (fun policy ->
             List.map
               (fun seed ->
                 ( { base with H.policy; seed },
                   Printf.sprintf "%s/%d" (Sim.Schedule.policy_name policy)
                     seed ))
               [ 0; 1; 2; 3; 4; 5 ])
           [ Sim.Schedule.Seeded_shuffle; Sim.Schedule.Priority ]))

let test_fuzz_pipelined_commit () =
  (* The pipelined commit with leases, stripes and group commit,
     sanitized: locks release at the durability fence, so the fuzz
     drives readers into the release-to-write-back window while the
     drainer daemon's sweeps interleave with producers — plus the
     wait-die contention manager's wait/abort decisions under
     adversarial ties. *)
  with_tmpdir (fun dir ->
      let base =
        {
          (H.default_cfg ~dir) with
          H.zero_lat = true;
          nslots = 8;
          lease = 3;
          stripes = 4;
          group_commit = true;
          pipeline = true;
          cm_adaptive = true;
          pmcheck = true;
          race = true;
        }
      in
      fuzz "pipeline"
        (List.concat_map
           (fun policy ->
             List.map
               (fun seed ->
                 ( { base with H.policy; seed },
                   Printf.sprintf "%s/%d" (Sim.Schedule.policy_name policy)
                     seed ))
               [ 0; 1; 2 ])
           [ Sim.Schedule.Fifo; Sim.Schedule.Seeded_shuffle;
             Sim.Schedule.Priority ]))

let test_fuzz_admission () =
  (* Rejection paths under adversarial interleavings, sanitized: a
     deterministic slice of the workload is shed before any transaction
     exists, another slice stages (mangled) writes and cancels
     mid-flight — on the pipelined commit path, where write-backs of
     *committed* neighbors are in flight around every rejection.  The
     serializability check against final memory plus pmcheck prove a
     rejected request contributes nothing persistent. *)
  with_tmpdir (fun dir ->
      let base =
        {
          (H.default_cfg ~dir) with
          H.zero_lat = true;
          nslots = 8;
          lease = 3;
          stripes = 4;
          group_commit = true;
          pipeline = true;
          cm_adaptive = true;
          admission = true;
          pmcheck = true;
          race = true;
        }
      in
      fuzz "admission"
        (List.concat_map
           (fun policy ->
             List.map
               (fun seed ->
                 ( { base with H.policy; seed },
                   Printf.sprintf "%s/%d" (Sim.Schedule.policy_name policy)
                     seed ))
               [ 0; 1; 2 ])
           [ Sim.Schedule.Fifo; Sim.Schedule.Seeded_shuffle;
             Sim.Schedule.Priority ]))

(* ------------------------------------------------------------------ *)
(* Race detector wiring: armed runs stay silent, and the trace header
   re-arms the detector on replay (the --pmcheck meta pattern). *)

let test_race_armed_run_is_silent () =
  with_tmpdir (fun dir ->
      let off = { (H.default_cfg ~dir) with H.seed = 7 } in
      let o_off = H.run off in
      Alcotest.(check int) "detector off: no ops counted" 0 o_off.H.race_ops;
      let on = { off with H.race = true } in
      let o_on = H.run on in
      check_serializable "race-armed default" o_on;
      Alcotest.(check bool) "armed detector saw annotated accesses" true
        (o_on.H.race_ops > 0);
      (* the full coordination surface: pipelined drainer + wait-die +
         group commit + admission under adversarial zero-lat ties *)
      let full =
        {
          on with
          H.zero_lat = true;
          nslots = 8;
          lease = 3;
          stripes = 4;
          group_commit = true;
          pipeline = true;
          cm_adaptive = true;
          admission = true;
        }
      in
      let o_full = H.run full in
      check_serializable "race-armed full stack" o_full;
      Alcotest.(check bool) "full stack detector live" true
        (o_full.H.race_ops > 0))

let test_race_meta_roundtrip () =
  with_tmpdir (fun dir ->
      let cfg =
        { (contended ~dir Sim.Schedule.Seeded_shuffle) with H.race = true }
      in
      let o = H.run cfg in
      let path = Filename.concat dir "race-armed.trace" in
      H.save_schedule o cfg path;
      let sched =
        match Sim.Schedule.load path with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let cfg' = H.cfg_of_schedule ~dir sched in
      Alcotest.(check bool) "trace header re-arms the detector" true
        cfg'.H.race;
      let r = H.run ~schedule:sched cfg' in
      Alcotest.(check int) "replay re-ran armed" o.H.race_ops r.H.race_ops;
      Alcotest.(check int) "bit-exact: no leftover" 0 r.H.replay_leftover;
      Alcotest.(check int) "bit-exact: no invented" 0 r.H.replay_extra;
      check_serializable "armed replay" r;
      (* a header without the key (older trace) leaves the detector off *)
      let plain = contended ~dir Sim.Schedule.Seeded_shuffle in
      let o2 = H.run plain in
      let path2 = Filename.concat dir "plain.trace" in
      H.save_schedule o2 plain path2;
      match Sim.Schedule.load path2 with
      | Error e -> Alcotest.fail e
      | Ok s2 ->
          Alcotest.(check bool) "unarmed trace stays unarmed" false
            (H.cfg_of_schedule ~dir s2).H.race)

let test_fuzz_undo_mode () =
  with_tmpdir (fun dir ->
      let base =
        {
          (H.default_cfg ~dir) with
          H.undo = true;
          zero_lat = true;
          nslots = 8;
        }
      in
      fuzz "undo"
        (List.map
           (fun seed ->
             ( { base with H.seed = seed },
               Printf.sprintf "shuffle/%d" seed ))
           [ 0; 1; 2; 3 ]))

let () =
  Alcotest.run "sched"
    [
      ( "replay",
        [
          Alcotest.test_case "round trip through aborts" `Quick
            test_replay_roundtrip_with_aborts;
          Alcotest.test_case "regression traces stay serializable" `Quick
            test_regression_traces;
          Alcotest.test_case "race meta re-arms on replay" `Quick
            test_race_meta_roundtrip;
        ] );
      ( "race",
        [
          Alcotest.test_case "armed runs stay silent" `Quick
            test_race_armed_run_is_silent;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "default latency, all policies" `Slow
            test_fuzz_default_latency;
          Alcotest.test_case "zero latency, adversarial" `Slow
            test_fuzz_zero_latency;
          Alcotest.test_case "pipelined commit, sanitized" `Slow
            test_fuzz_pipelined_commit;
          Alcotest.test_case "admission rejections, sanitized" `Slow
            test_fuzz_admission;
          Alcotest.test_case "eager undo" `Slow test_fuzz_undo_mode;
        ] );
    ]
