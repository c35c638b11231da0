(* sched_explore: schedule exploration for the durable STM.

   crash_explore enumerates *where* a run can die; this driver
   enumerates *how* a run can interleave.  Every simulator event that
   falls due at the same instant is ordered by a pluggable tiebreak
   policy ({!Sim.Schedule}): fifo is the historical deterministic
   order, shuffle permutes each tie with a seeded rng, and priority is
   a PCT-style scheduler with seeded priority-change points.  Each run

     1. executes a deterministic multi-threaded read-write workload
        under the chosen (policy, seed), recording every tiebreak key
        and backoff draw into a schedule trace;
     2. collects each committed transaction's first-read values, write
        set, and commit timestamp into a history;
     3. checks the history for conflict serializability: replayed in
        commit-timestamp order against a model memory, every recorded
        read and the final memory image must match — cts order is
        exactly the order crash recovery would replay the redo logs in.

   A violating schedule is saved next to the scratch directory and the
   exact replay invocation is printed; --replay re-runs it bit-exactly
   (including aborts and backoff), which is how the regression traces
   in test/schedules/ were captured.

   Usage:
     sched_explore [--seeds N] [--seed0 K] [--policy P] [--threads T]
                   [--txns N] [--slots S] [--undo] [--trace]
                   [--lease N] [--stripes N] [--group-commit]
                   [--pipeline] [--cm-adaptive] [--admission]
                   [--pmcheck] [--race]
                   [--record FILE | --replay FILE] [--dir D] [-v]
*)

open Cmdliner
module H = Explore.Sched_harness

let policies_of_string = function
  | "all" -> Ok [ Sim.Schedule.Fifo; Sim.Schedule.Seeded_shuffle;
                  Sim.Schedule.Priority ]
  | s -> Result.map (fun p -> [ p ]) (Sim.Schedule.policy_of_string s)

let describe o =
  Printf.sprintf "%d commits (%d ro), %d aborts, %d contention, %d ns"
    o.H.commits o.H.ro_commits o.H.aborts o.H.contention o.H.sim_ns

let print_violations o =
  List.iter (fun v -> Printf.printf "  VIOLATION: %s\n" v) o.H.violations

let replay_hint path dir =
  Printf.sprintf "sched_explore --replay %s --dir %s" (Filename.quote path)
    (Filename.quote dir)

(* The check [Txn.create_pool] applies, run before any schedule so a
   bad knob is a one-line error (exit 2), like a bad --policy. *)
let check_knobs cfg =
  Result.map_error
    (fun msg -> "invalid configuration: " ^ msg)
    (Mtm.Txn.check_config (H.mtm_config cfg))

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)

let run_replay ~dir ~verbose path =
  match
    Result.bind (Sim.Schedule.load path) (fun sched ->
        let cfg = H.cfg_of_schedule ~dir sched in
        Result.map (fun () -> (sched, cfg)) (check_knobs cfg))
  with
  | Error msg ->
      Printf.eprintf "sched_explore: %s\n" msg;
      2
  | Ok (sched, cfg) -> (
      Printf.printf "replaying %s: policy %s, seed %d, %d threads x %d txns\n%!"
        path
        (Sim.Schedule.policy_name cfg.H.policy)
        cfg.H.seed cfg.H.threads cfg.H.txns;
      let o = H.run ~schedule:sched cfg in
      if verbose then Printf.printf "  %s\n" (describe o);
      print_violations o;
      let fidelity =
        if o.H.replay_leftover = 0 && o.H.replay_extra = 0 then "bit-exact"
        else
          (* Expected when replaying a regression trace against fixed
             code: the fix changes a transaction's fate partway
             through, after which the decision streams stop lining up. *)
          Printf.sprintf "diverged: %d recorded decisions unconsumed, %d invented"
            o.H.replay_leftover o.H.replay_extra
      in
      if o.H.violations <> [] then begin
        Printf.printf "replay NOT SERIALIZABLE (%s): %s\n" fidelity
          (describe o);
        1
      end
      else begin
        Printf.printf "replay OK (%s): %s, serializable\n" fidelity
          (describe o);
        0
      end)

let run_record ~cfg ~verbose path =
  let o = H.run cfg in
  H.save_schedule o cfg path;
  if o.H.violations <> [] then begin
    let flight = path ^ ".flight.txt" in
    Out_channel.with_open_text flight (fun oc ->
        output_string oc (Obs.flight_dump o.H.obs));
    Printf.printf "flight recorder: %s\n" flight
  end;
  if verbose then Printf.printf "  %s\n" (describe o);
  print_violations o;
  Printf.printf "recorded %s schedule (seed %d) to %s: %s\n"
    (Sim.Schedule.policy_name cfg.H.policy)
    cfg.H.seed path
    (if o.H.violations = [] then "serializable" else "NOT SERIALIZABLE");
  if o.H.violations = [] then 0 else 1

let run_sweep ~cfg0 ~policies ~seeds ~seed0 ~verbose =
  let failures = ref [] in
  let runs = ref 0 in
  let total_commits = ref 0 and total_aborts = ref 0 in
  List.iter
    (fun policy ->
      for k = seed0 to seed0 + seeds - 1 do
        let cfg = { cfg0 with H.policy; seed = k } in
        let o = H.run cfg in
        incr runs;
        total_commits := !total_commits + o.H.commits;
        total_aborts := !total_aborts + o.H.aborts;
        if verbose then
          Printf.printf "%s seed %d: %s%s\n%!"
            (Sim.Schedule.policy_name policy)
            k (describe o)
            (if o.H.violations = [] then "" else "  << VIOLATION");
        if o.H.violations <> [] then begin
          let path =
            Filename.concat cfg.H.dir
              (Printf.sprintf "sched-%s-seed%d.trace"
                 (Sim.Schedule.policy_name policy)
                 k)
          in
          H.save_schedule o cfg path;
          (* flight recorder: the last events before the violation,
             always available — the sweep does not run with tracing *)
          let flight = path ^ ".flight.txt" in
          Out_channel.with_open_text flight (fun oc ->
              output_string oc (Obs.flight_dump o.H.obs));
          Printf.printf "FAIL %s seed %d: %d violation(s)\n"
            (Sim.Schedule.policy_name policy)
            k
            (List.length o.H.violations);
          print_violations o;
          Printf.printf "     replay: %s\n" (replay_hint path cfg.H.dir);
          Printf.printf "     flight recorder: %s\n%!" flight;
          failures := (policy, k, path) :: !failures
        end
      done)
    policies;
  Printf.printf
    "explored %d schedules (%d seeds x %d policies): %d commits, %d aborts\n"
    !runs seeds (List.length policies) !total_commits !total_aborts;
  if !failures = [] then begin
    Printf.printf "all %d schedules conflict-serializable.\n" !runs;
    0
  end
  else begin
    Printf.printf "%d schedule(s) FAILED:\n" (List.length !failures);
    List.iter
      (fun (_, _, path) ->
        Printf.printf "  %s\n" (replay_hint path cfg0.H.dir))
      (List.rev !failures);
    1
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let run seeds seed0 policy threads txns slots undo zero_lat lease stripes
    group_commit pipeline cm_adaptive admission trace pmcheck race record
    replay dir verbose =
  let cfg0 =
    {
      (H.default_cfg ~dir) with
      H.threads;
      txns;
      nslots = slots;
      undo;
      zero_lat;
      lease;
      stripes;
      group_commit;
      pipeline;
      cm_adaptive;
      admission;
      trace;
      pmcheck;
      race;
      seed = seed0;
    }
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  match (replay, record) with
  | Some _, Some _ ->
      Printf.eprintf "sched_explore: --record and --replay are exclusive\n";
      2
  | Some path, None -> run_replay ~dir ~verbose path
  | None, record -> (
      match
        Result.bind (check_knobs cfg0) (fun () -> policies_of_string policy)
      with
      | Error msg ->
          Printf.eprintf "sched_explore: %s\n" msg;
          2
      | Ok policies -> (
          match record with
          | Some path ->
              let policy =
                match policies with [ p ] -> p | _ -> Sim.Schedule.Seeded_shuffle
              in
              run_record ~cfg:{ cfg0 with H.policy } ~verbose path
          | None -> run_sweep ~cfg0 ~policies ~seeds ~seed0 ~verbose))

let seeds =
  Arg.(
    value & opt int 70
    & info [ "seeds" ] ~doc:"Schedule seeds to explore per policy.")

let seed0 = Arg.(value & opt int 0 & info [ "seed0" ] ~doc:"First seed.")

let policy =
  Arg.(
    value & opt string "all"
    & info [ "policy" ]
        ~doc:"Tiebreak policy: fifo, shuffle, priority, or all.")

let threads =
  Arg.(value & opt int 3 & info [ "threads" ] ~doc:"Simulated threads.")

let txns =
  Arg.(value & opt int 8 & info [ "txns" ] ~doc:"Transactions per thread.")

let slots =
  Arg.(
    value & opt int 16
    & info [ "slots" ] ~doc:"Shared 8-byte slots (lower = more conflicts).")

let undo =
  Arg.(
    value & flag
    & info [ "undo" ] ~doc:"Run under eager undo logging instead of redo.")

let zero_lat =
  Arg.(
    value & flag
    & info [ "zero-lat" ]
        ~doc:
          "Zero all software-overhead latencies so whole code paths land \
           on single simulated ticks: maximally adversarial same-time \
           ties.")

let lease =
  Arg.(
    value & opt int 1
    & info [ "lease" ]
        ~doc:
          "Commit timestamps leased per shared-counter refill \
           (Txn.config.ts_lease; 1 = the legacy draw-per-commit \
           protocol).  Small values make lease-boundary interleavings \
           common.")

let stripes =
  Arg.(
    value & opt int 1
    & info [ "stripes" ]
        ~doc:
          "Multiply the lock-table size by this power of two \
           (Txn.config.lock_stripes).")

let group_commit =
  Arg.(
    value & flag
    & info [ "group-commit" ]
        ~doc:
          "Share one durability fence among transactions retiring in the \
           same drain window (Txn.config.group_commit); needs --pipeline.")

let pipeline =
  Arg.(
    value & flag
    & info [ "pipeline" ]
        ~doc:
          "Pipelined commit (Txn.config.pipeline): locks release at the \
           durability fence and a drainer daemon retires the deferred \
           write-backs.  Fuzzes the release-to-write-back window.")

let cm_adaptive =
  Arg.(
    value & flag
    & info [ "cm-adaptive" ]
        ~doc:
          "Adaptive contention manager (Txn.config.cm = Cm_adaptive): \
           wait-die timestamp priority plus capped exponential backoff.")

let admission =
  Arg.(
    value & flag
    & info [ "admission" ]
        ~doc:
          "Route transactions through a Serve.Admission policy: a \
           deterministic slice is shed before starting, another is \
           cancelled mid-flight.  The serializability check then proves \
           rejected requests leave zero persistent side effects.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Record an observability trace (schedule decisions included).")

let pmcheck =
  Arg.(
    value & flag
    & info [ "pmcheck" ]
        ~doc:
          "Run every schedule under the durability sanitizer; sanitizer \
           violations fail the run like serializability violations do.")

let race =
  Arg.(
    value & flag
    & info [ "race" ]
        ~doc:
          "Run every schedule under the happens-before race detector \
           (FastTrack-style vector clocks over annotated volatile \
           coordination state); detected races fail the run like \
           serializability violations do and save a replayable trace.")

let record =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~doc:"Run one schedule and save its trace to $(docv)."
        ~docv:"FILE")

let replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ]
        ~doc:"Replay a saved schedule trace bit-exactly." ~docv:"FILE")

let dir =
  Arg.(
    value
    & opt string
        (Filename.concat (Filename.get_temp_dir_name ()) "mnemosyne-sched")
    & info [ "dir" ] ~doc:"Scratch directory for instance state and traces.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-run log.")

let cmd =
  Cmd.v
    (Cmd.info "sched_explore"
       ~doc:
         "Fuzz same-time interleavings of the durable STM and check every \
          run for conflict serializability")
    Term.(
      const run $ seeds $ seed0 $ policy $ threads $ txns $ slots $ undo
      $ zero_lat $ lease $ stripes $ group_commit $ pipeline $ cm_adaptive
      $ admission $ trace $ pmcheck $ race $ record $ replay $ dir $ verbose)

let () = exit (Cmd.eval' cmd)
