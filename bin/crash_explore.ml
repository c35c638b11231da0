(* crash_explore: deterministic crash-point exploration.

   The paper's reliability claim (section 6.2) is that memory survives a
   crash at *any* point.  crash_stress samples that space with crashes
   at round boundaries; this driver enumerates it: every crash-relevant
   persistence operation (write-through post, WC drain, cache-line
   write-back, fence) carries a monotonically increasing op index from
   {!Scm.Crashpoint}, and the explorer

     1. runs the workload once, disarmed, to count N persistence ops;
     2. re-runs it once per selected op index k, arming the crash point
        so the k-th operation raises instead of executing;
     3. applies the adversarial crash policy to the surviving volatile
        state, re-runs recovery, and checks the section-6.2 invariant:
        memory equals the deterministic replay of exactly the
        committed-transaction count;
     4. optionally (--second) crashes the *recovery* itself at sampled
        op indices and recovers again, proving double-recovery
        soundness (torn erase loops, half-replayed redo logs).

   Every run is a pure function of (seed, op index): a failure is
   replayed bit-for-bit with --at (and --second-at), and the failing
   run's Chrome trace is dumped so the commit phase that broke is
   visible in chrome://tracing.

   Usage:
     crash_explore [--txns T] [--seed S] [--dir D]
                   [--from A] [--to B] [--stride N] [--max-points M]
                   [--at K [--second-at J]] [--second N] [--fresh]
                   [--count-only] [--verbose]
*)

open Cmdliner
module Cp = Scm.Crashpoint

let nslots = Workload.Stress_model.default_nslots

(* ------------------------------------------------------------------ *)
(* Directory plumbing                                                  *)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let copy_file src dst =
  In_channel.with_open_bin src (fun ic ->
      Out_channel.with_open_bin dst (fun oc ->
          let buf = Bytes.create 65536 in
          let rec go () =
            let n = In_channel.input ic buf 0 65536 in
            if n > 0 then begin
              Out_channel.output oc buf 0 n;
              go ()
            end
          in
          go ()))

let rec copy_dir src dst =
  ensure_dir dst;
  Array.iter
    (fun e ->
      let s = Filename.concat src e and d = Filename.concat dst e in
      if Sys.is_directory s then copy_dir s d else copy_file s d)
    (Sys.readdir src)

let reset_or_die dir =
  match Mnemosyne.reset_dir dir with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "crash_explore: %s\n" msg;
      exit 2

(* ------------------------------------------------------------------ *)
(* The deterministic workload (shared model with crash_stress)         *)

let ensure_data inst =
  let slot = Mnemosyne.pstatic inst "stress.data" 8 in
  Mnemosyne.atomically inst (fun tx ->
      match Int64.to_int (Mtm.Txn.load tx slot) with
      | 0 ->
          let a = Mtm.Txn.alloc tx (nslots * 8) ~slot in
          for i = 0 to nslots - 1 do
            Mtm.Txn.store tx (a + (8 * i)) 0L
          done;
          a
      | a -> a)

let run_updates inst ~seed ~txns =
  let data = ensure_data inst in
  let cslot = Mnemosyne.pstatic inst "stress.count" 8 in
  let count =
    Mnemosyne.atomically inst (fun tx -> Int64.to_int (Mtm.Txn.load tx cslot))
  in
  for t = count to count + txns - 1 do
    Mnemosyne.atomically inst (fun tx ->
        List.iter
          (fun (s, v) -> Mtm.Txn.store tx (data + (8 * s)) v)
          (Workload.Stress_model.txn_updates ~seed ~t ());
        Mtm.Txn.store tx cslot (Int64.of_int (t + 1)))
  done

(* The serving-mode workload (--serving): each committed update is
   preceded by two rejected requests — one shed by the admission policy
   before any transaction exists, one admitted but cancelled mid-flight
   after staging mangled stores to the very slots the committed stream
   owns.  The crash sweep then covers every persistence op across those
   rejections, and [verify]'s replay-of-committed-count invariant is
   exactly the claim under test: a shed or cancelled request leaves
   zero persistent side effects, at every crash point. *)
let run_serving_updates inst ~seed ~txns =
  let data = ensure_data inst in
  let cslot = Mnemosyne.pstatic inst "stress.count" 8 in
  let count =
    Mnemosyne.atomically inst (fun tx -> Int64.to_int (Mtm.Txn.load tx cslot))
  in
  let adm =
    Serve.Admission.make
      { Serve.Admission.queue_cap = 4; log_high_pct = 95; boost_pct = 0 }
  in
  for t = count to count + txns - 1 do
    (* a request the queue cap rejects: never starts a transaction *)
    (match Serve.Admission.admit_enqueue adm ~queue_len:(5 + (t mod 3)) with
    | Error _ -> ()
    | Ok () -> failwith "crash_explore: forced queue rejection admitted");
    (* an admitted request rejected mid-flight: its staged stores must
       all be retracted, or the replay check below catches the leak *)
    (match
       Mnemosyne.atomically inst (fun tx ->
           List.iter
             (fun (s, v) ->
               Mtm.Txn.store tx (data + (8 * s)) (Int64.lognot v))
             (Workload.Stress_model.txn_updates ~seed:(seed + 7919) ~t ());
           Mtm.Txn.cancel tx)
     with
    | () -> ()
    | exception Mtm.Txn.Cancelled -> ());
    Mnemosyne.atomically inst (fun tx ->
        List.iter
          (fun (s, v) -> Mtm.Txn.store tx (data + (8 * s)) v)
          (Workload.Stress_model.txn_updates ~seed ~t ());
        Mtm.Txn.store tx cslot (Int64.of_int (t + 1)))
  done

(* The section-6.2 invariant: memory must equal the deterministic
   replay of exactly the committed-transaction count. *)
let verify inst ~seed =
  let slot = Mnemosyne.pstatic inst "stress.data" 8 in
  let cslot = Mnemosyne.pstatic inst "stress.count" 8 in
  let data =
    Mnemosyne.atomically inst (fun tx -> Int64.to_int (Mtm.Txn.load tx slot))
  in
  let count =
    Mnemosyne.atomically inst (fun tx -> Int64.to_int (Mtm.Txn.load tx cslot))
  in
  if data = 0 then
    if count = 0 then Ok 0
    else
      Error
        (Printf.sprintf "count=%d but the data array was never allocated"
           count)
  else begin
    let expected = Workload.Stress_model.model_after ~seed count in
    let bad =
      Mnemosyne.atomically inst (fun tx ->
          let bad = ref 0 in
          for i = 0 to nslots - 1 do
            if Mtm.Txn.load tx (data + (8 * i)) <> expected.(i) then incr bad
          done;
          !bad)
    in
    if bad = 0 then Ok count
    else
      Error
        (Printf.sprintf
           "%d/%d slots disagree with the replay of %d committed \
            transactions"
           bad nslots count)
  end

(* ------------------------------------------------------------------ *)
(* One phase = open (full recovery) + optionally the workload          *)

type cfg = {
  seed : int;
  txns : int;
  base : string;
  geometry : Mnemosyne.geometry;
  mtm : Mtm.Txn.config;
  fresh : bool;
  verbose : bool;
  fsck : bool;  (* pmfsck every post-recovery image *)
  pmcheck : bool;  (* durability sanitizer under every phase *)
  serving : bool;  (* serving workload: admission-shed + cancelled txns *)
}

let setup_dir cfg = Filename.concat cfg.base "setup"
let run_dir cfg = Filename.concat cfg.base "run"
let crashed_dir cfg = Filename.concat cfg.base "crashed"

type phase_outcome =
  | Done of Mnemosyne.t * int * int  (* instance, open ops, total ops *)
  | Crashed of int * Cp.kind  (* device already holds post-inject state *)

(* Run recovery (and the update workload unless [updates] is false)
   over [dev], with the crash point armed at [crash_at].  On a
   simulated crash the adversarial policy is applied immediately, so
   the returned device state is what a power loss would leave. *)
let run_phase cfg ~dev ~dir ~seed ~crash_at ~updates =
  let obs = Obs.create ~tracing:true () in
  let cp = Cp.create () in
  (match crash_at with Some k -> Cp.arm cp ~at:k | None -> ());
  let machine = Scm.Env.machine_of_device ~seed ~obs ~crash_point:cp dev in
  (* Install the sanitizer before recovery touches anything, so the
     recovery path itself is checked too.  The handle outlives the
     crash-time detach, so violations found before a crash are still
     reported. *)
  let chk =
    if cfg.pmcheck then Some (Scm.Env.install_pmcheck machine) else None
  in
  match
    let inst =
      Mnemosyne.open_instance ~geometry:cfg.geometry ~mtm:cfg.mtm ~seed
        ~machine ~dir ()
    in
    let open_ops = Cp.count cp in
    (if updates then
       if cfg.serving then run_serving_updates inst ~seed:cfg.seed ~txns:cfg.txns
       else run_updates inst ~seed:cfg.seed ~txns:cfg.txns);
    (inst, open_ops)
  with
  | inst, open_ops -> (machine, obs, chk, Done (inst, open_ops, Cp.count cp))
  | exception Cp.Simulated_crash { op; kind } ->
      Obs.instant obs Obs.Trace.Crash ~arg:op;
      Scm.Crash.inject machine;
      (machine, obs, chk, Crashed (op, kind))

(* The sanitizer's verdict for one phase: None when it was off or
   silent. *)
let sanitizer_msg chk =
  match chk with
  | None -> None
  | Some chk ->
      let total = Scm.Pmcheck.total_violations chk in
      if total = 0 then None
      else
        let shown =
          List.filteri (fun i _ -> i < 5) (Scm.Pmcheck.violations chk)
        in
        Some
          (Printf.sprintf "pmcheck: %d violation(s): %s" total
             (String.concat "; " (List.map Scm.Pmcheck.render shown)))

(* The full per-phase verdict: workload invariant, then the sanitizer,
   then (when enabled) a pmfsck pass over the recovered image. *)
let verify_phase cfg inst ~chk =
  match verify inst ~seed:cfg.seed with
  | Error _ as e -> e
  | Ok c -> (
      match sanitizer_msg chk with
      | Some msg -> Error msg
      | None ->
          if not cfg.fsck then Ok c
          else
            let report = Check.Pmfsck.run (Mnemosyne.view inst) in
            if Check.Pmfsck.ok report then Ok c
            else
              Error
                (Printf.sprintf "pmfsck: %s"
                   (String.trim (Check.Pmfsck.render report))))

let dump_trace cfg ~obs ~name =
  if not (Obs.tracing obs) then None
  else
    let path = Filename.concat cfg.base name in
    Obs.Trace.save_chrome obs.Obs.flight path;
    Some path

(* The always-on flight recorder: available for every failure, traced
   run or not — the ring holds the last events leading up to it. *)
let dump_flight cfg ~obs ~name =
  let path = Filename.concat cfg.base name in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.flight_dump obs));
  path

(* ------------------------------------------------------------------ *)
(* Setup: a cleanly closed instance whose recovery + workload is the
   explored run.  --fresh skips this and explores instance creation
   itself.                                                             *)

let build_setup cfg =
  reset_or_die (setup_dir cfg);
  let obs = Obs.create () in
  let machine =
    Mnemosyne.prepare_machine ~geometry:cfg.geometry ~seed:cfg.seed ~obs
      ~dir:(setup_dir cfg) ()
  in
  let inst =
    Mnemosyne.open_instance ~geometry:cfg.geometry ~mtm:cfg.mtm ~seed:cfg.seed
      ~machine ~dir:(setup_dir cfg) ()
  in
  ignore (ensure_data inst);
  Mnemosyne.close inst;
  machine.Scm.Env.dev

(* One working device serves every crash point: its undo journal is
   enabled once at the post-setup state and rolled back to [mark0]
   between points, so per-point restore costs O(words that run touched)
   instead of re-copying the whole arena.

   The run directory gets the same treatment on the file side: most
   points never touch their backing files (no eviction pressure, and a
   crashed run never reaches the clean-shutdown sync), so the directory
   is re-seeded from the setup copy only when {!Region.Backing_store}'s
   mutation counter shows the previous run actually wrote to it.
   [run_dir_gen] is the counter value as of the last re-seed, or -1
   when the directory's contents are unknown (startup, or after a
   second-level mode copied a crashed snapshot over it). *)
let run_dir_gen = ref (-1)
let taint_run_dir () = run_dir_gen := -1

let fresh_point_state cfg ~work ~mark0 =
  if !run_dir_gen <> Region.Backing_store.global_mutations () then begin
    reset_or_die (run_dir cfg);
    ensure_dir (run_dir cfg);
    if not cfg.fresh then
      copy_dir
        (Filename.concat (setup_dir cfg) "backing")
        (Filename.concat (run_dir cfg) "backing");
    run_dir_gen := Region.Backing_store.global_mutations ()
  end;
  Scm.Scm_device.journal_undo_to work mark0;
  work

(* ------------------------------------------------------------------ *)
(* Exploring one crash point                                           *)

type failure = { op : int; second : int option; msg : string }

let replay_hint cfg f =
  Printf.sprintf "crash_explore --seed %d --txns %d%s%s --at %d%s --dir %s"
    cfg.seed cfg.txns
    (if cfg.fresh then " --fresh" else "")
    (if cfg.serving then " --serving" else "")
    f.op
    (match f.second with Some j -> Printf.sprintf " --second-at %d" j | None -> "")
    (Filename.quote cfg.base)

let report_failure cfg ~obs f =
  let tag =
    Printf.sprintf "crash-seed%d-op%d%s" cfg.seed f.op
      (match f.second with Some j -> Printf.sprintf "-r%d" j | None -> "")
  in
  let trace = dump_trace cfg ~obs ~name:(tag ^ ".trace.json") in
  let flight = dump_flight cfg ~obs ~name:(tag ^ ".flight.txt") in
  Printf.printf "FAIL op %d%s: %s\n" f.op
    (match f.second with
    | Some j -> Printf.sprintf " (second-level crash at recovery op %d)" j
    | None -> "")
    f.msg;
  Printf.printf "     replay: %s\n" (replay_hint cfg f);
  (match trace with
  | Some p -> Printf.printf "     trace up to the crash: %s\n" p
  | None -> ());
  Printf.printf "     flight recorder: %s\n" flight;
  print_string "%!"

type second_mode = No_second | Sample of int | Second_at of int

(* Recover the post-crash device (optionally crashing again at
   phase-op [crash_at]) and verify the invariant; returns the committed
   count plus the phase's total op count.  When [updates] is set, the
   phase resumes the workload after recovery, so second-level crash
   points also cover appends made on top of a recovered log — the
   window where an unsound stale-suffix erase would plant a
   mis-parsable word for the *next* recovery scan. *)
let recover_and_verify cfg ~dev ~crash_at ~updates ~primary_op =
  let second = crash_at in
  match
    run_phase cfg ~dev ~dir:(run_dir cfg) ~seed:(cfg.seed + 1)
      ~crash_at ~updates
  with
  | _, obs, chk1, Crashed (op2, _) -> (
      match sanitizer_msg chk1 with
      | Some msg ->
          (* violations before the second crash are real violations *)
          report_failure cfg ~obs { op = primary_op; second = Some op2; msg };
          Error { op = primary_op; second = Some op2; msg }
      | None -> (
          (* crashed again: recover a second time, disarmed *)
          match
            run_phase cfg ~dev ~dir:(run_dir cfg) ~seed:(cfg.seed + 2)
              ~crash_at:None ~updates:false
          with
          | _, obs2, chk2, Done (inst, _, _) -> (
              match verify_phase cfg inst ~chk:chk2 with
              | Ok c -> Ok (c, 0)
              | Error msg ->
                  report_failure cfg ~obs:obs2
                    { op = primary_op; second = Some op2; msg };
                  Error { op = primary_op; second = Some op2; msg })
          | _, _, _, Crashed _ ->
              let msg = "disarmed recovery raised Simulated_crash" in
              report_failure cfg ~obs { op = primary_op; second; msg };
              Error { op = primary_op; second; msg }))
  | _, obs, chk, Done (inst, _, total) -> (
      match verify_phase cfg inst ~chk with
      | Ok c -> Ok (c, total)
      | Error msg ->
          let f = { op = primary_op; second; msg } in
          report_failure cfg ~obs f;
          Error f)

let sample_indices ~upto ~n =
  if upto <= 0 || n <= 0 then []
  else if n >= upto then List.init upto (fun i -> i + 1)
  else
    List.sort_uniq compare
      (List.init n (fun i -> max 1 ((i + 1) * upto / n)))

let explore_point cfg ~work ~mark0 ~k ~second =
  let dev = fresh_point_state cfg ~work ~mark0 in
  let machine, obs1, chk1, outcome =
    run_phase cfg ~dev ~dir:(run_dir cfg) ~seed:cfg.seed ~crash_at:(Some k)
      ~updates:true
  in
  ignore machine;
  match outcome with
  | Done (inst, _, total) -> (
      (* k lies beyond the end of the run; nothing crashed.  Verify the
         completed state anyway so --at with a large index is useful. *)
      match verify_phase cfg inst ~chk:chk1 with
      | Ok c ->
          if cfg.verbose then
            Printf.printf "op %d: run completed (%d ops total), %d txns OK\n"
              k total c;
          []
      | Error msg ->
          let f = { op = k; second = None; msg } in
          report_failure cfg ~obs:obs1 f;
          [ f ])
  | Crashed (op, kind) -> (
      let failures = ref [] in
      (* violations accumulated before the crash are real violations *)
      (match sanitizer_msg chk1 with
      | Some msg ->
          let f = { op; second = None; msg } in
          report_failure cfg ~obs:obs1 f;
          failures := f :: !failures
      | None -> ());
      let note_fail ~obs f =
        ignore obs;
        failures := f :: !failures
      in
      let snapshot_crashed () =
        ensure_dir (crashed_dir cfg);
        reset_or_die (crashed_dir cfg);
        ensure_dir (crashed_dir cfg);
        copy_dir (run_dir cfg) (crashed_dir cfg)
      in
      (match second with
      | No_second -> (
          match
            recover_and_verify cfg ~dev ~crash_at:None ~updates:false
              ~primary_op:op
          with
          | Ok (c, _) ->
              if cfg.verbose then
                Printf.printf "op %d (%s): recovered, %d committed txns OK\n"
                  op (Cp.kind_name kind) c
          | Error f -> note_fail ~obs:obs1 f)
      | Second_at j -> (
          (* snapshot the post-crash state, then crash the recovery (or
             the resumed workload) at op j *)
          snapshot_crashed ();
          match
            recover_and_verify cfg ~dev ~crash_at:(Some j) ~updates:true
              ~primary_op:op
          with
          | Ok (c, _) ->
              if cfg.verbose then
                Printf.printf
                  "op %d + recovery op %d: double recovery, %d txns OK\n" op j
                  c
          | Error f -> note_fail ~obs:obs1 f)
      | Sample n -> (
          (* first a straight recovery + resumed run, counting its ops;
             a nested journal mark captures the post-crash state so each
             second-level attempt rolls back to it *)
          let mark_crash = Scm.Scm_device.journal_mark dev in
          snapshot_crashed ();
          match
            recover_and_verify cfg ~dev ~crash_at:None ~updates:true
              ~primary_op:op
          with
          | Error f -> note_fail ~obs:obs1 f
          | Ok (c, recovery_ops) ->
              if cfg.verbose then
                Printf.printf
                  "op %d (%s): recovered (%d recovery ops), %d txns OK\n" op
                  (Cp.kind_name kind) recovery_ops c;
              List.iter
                (fun j ->
                  (* restore the post-crash state for each attempt *)
                  reset_or_die (run_dir cfg);
                  ensure_dir (run_dir cfg);
                  copy_dir (crashed_dir cfg) (run_dir cfg);
                  taint_run_dir ();
                  Scm.Scm_device.journal_undo_to dev mark_crash;
                  match
                    recover_and_verify cfg ~dev ~crash_at:(Some j)
                      ~updates:true ~primary_op:op
                  with
                  | Ok _ -> ()
                  | Error f -> note_fail ~obs:obs1 f)
                (sample_indices ~upto:recovery_ops ~n)));
      List.rev !failures)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let count_ops cfg ~work ~mark0 =
  let dev = fresh_point_state cfg ~work ~mark0 in
  match
    run_phase cfg ~dev ~dir:(run_dir cfg) ~seed:cfg.seed ~crash_at:None
      ~updates:true
  with
  | _, _, chk, Done (inst, open_ops, total) -> (
      match verify_phase cfg inst ~chk with
      | Ok c when c = cfg.txns -> (open_ops, total)
      | Ok c ->
          Printf.eprintf
            "crash_explore: crash-free run committed %d txns, expected %d\n" c
            cfg.txns;
          exit 2
      | Error msg ->
          Printf.eprintf
            "crash_explore: crash-free run fails verification: %s\n" msg;
          exit 2)
  | _, _, _, Crashed _ ->
      Printf.eprintf "crash_explore: disarmed counting run crashed\n";
      exit 2

let select_points ~total ~from_ ~to_ ~stride ~max_points =
  let lo = max 1 from_ in
  let hi = match to_ with Some t -> min t total | None -> total in
  if hi < lo then []
  else begin
    let stride = max 1 stride in
    let span = ((hi - lo) / stride) + 1 in
    let stride =
      if max_points > 0 && span > max_points then
        ((hi - lo) / max_points) + 1
      else stride
    in
    let rec go acc k = if k > hi then List.rev acc else go (k :: acc) (k + stride) in
    go [] lo
  end

(* Machine-readable sweep outcome, for CI artifacts. *)
let write_report cfg ~path ~points ~failures =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"seed\":%d,\"txns\":%d,\"fsck\":%b,\"pmcheck\":%b,\"points\":%d,\
         \"failures\":["
        cfg.seed cfg.txns cfg.fsck cfg.pmcheck points;
      List.iteri
        (fun i f ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc "{\"op\":%d,%s\"msg\":%s}" f.op
            (match f.second with
            | Some j -> Printf.sprintf "\"second\":%d," j
            | None -> "")
            (Obs.Json.string f.msg))
        failures;
      output_string oc "]}\n")

let run txns seed dir from_ to_ stride max_points at second_at second fresh
    serving count_only verbose fsck pmcheck report =
  let geometry =
    { Mnemosyne.scm_frames = 2048; heap_superblocks = 64;
      heap_large_bytes = 256 * 1024 }
  in
  (* Serving mode runs under eager undo: with lazy redo a rejected
     transaction dies before its only log append, so rejections would
     add zero persistence ops and the sweep could never crash inside
     one.  Eager undo gives every staged store a persistent footprint
     (the in-place write and its undo record) that the cancel must
     retract — the non-trivial half of the zero-side-effect claim. *)
  let mtm =
    {
      Mtm.Txn.default_config with
      nthreads = 1;
      log_cap_words = 8192;
      version_mgmt =
        (if serving then Mtm.Txn.Eager_undo else Mtm.Txn.Lazy_redo);
    }
  in
  let cfg =
    {
      seed;
      txns;
      base = dir;
      geometry;
      mtm;
      fresh;
      verbose;
      fsck;
      pmcheck;
      serving;
    }
  in
  ensure_dir cfg.base;
  let work =
    if fresh then Scm.Scm_device.create ~nframes:geometry.scm_frames ()
    else build_setup cfg
  in
  Scm.Scm_device.journal_start work;
  let mark0 = Scm.Scm_device.journal_mark work in
  let open_ops, total = count_ops cfg ~work ~mark0 in
  Printf.printf
    "crash_explore: seed %d, %d txns: %d persistence ops (%d during \
     open/recovery, %d in the workload)\n\
     %!"
    seed txns total open_ops (total - open_ops);
  if count_only then 0
  else begin
    let points =
      match at with
      | Some k -> [ k ]
      | None -> select_points ~total ~from_ ~to_ ~stride ~max_points
    in
    let second_mode =
      match (at, second_at) with
      | Some _, Some j -> Second_at j
      | None, Some _ ->
          Printf.eprintf "crash_explore: --second-at requires --at\n";
          exit 2
      | _, None -> if second > 0 then Sample second else No_second
    in
    Printf.printf "exploring %d crash points%s...\n%!" (List.length points)
      (match second_mode with
      | Sample n -> Printf.sprintf " (+%d second-level each)" n
      | Second_at j -> Printf.sprintf " (second-level at recovery op %d)" j
      | No_second -> "");
    let failures = ref [] in
    let explored = ref 0 in
    List.iter
      (fun k ->
        let fs = explore_point cfg ~work ~mark0 ~k ~second:second_mode in
        failures := !failures @ fs;
        incr explored;
        if (not verbose) && !explored mod 100 = 0 then
          Printf.printf "  ... %d/%d points, %d failure(s)\n%!" !explored
            (List.length points) (List.length !failures))
      points;
    (match report with
    | Some path ->
        write_report cfg ~path ~points:!explored ~failures:!failures
    | None -> ());
    if !failures = [] then begin
      Printf.printf
        "all %d crash points recovered to a state consistent with their \
         committed-transaction count.\n"
        !explored;
      0
    end
    else begin
      Printf.printf "%d of %d crash points FAILED:\n" (List.length !failures)
        !explored;
      List.iter
        (fun f -> Printf.printf "  %s\n" (replay_hint cfg f))
        !failures;
      1
    end
  end

let txns =
  Arg.(
    value & opt int 5
    & info [ "txns" ] ~doc:"Update transactions in the explored workload.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")

let dir =
  Arg.(
    value
    & opt string
        (Filename.concat (Filename.get_temp_dir_name ()) "mnemosyne-explore")
    & info [ "dir" ] ~doc:"Scratch directory for instance state.")

let from_ =
  Arg.(value & opt int 1 & info [ "from" ] ~doc:"First op index to explore.")

let to_ =
  Arg.(
    value
    & opt (some int) None
    & info [ "to" ] ~doc:"Last op index to explore (default: all).")

let stride =
  Arg.(value & opt int 1 & info [ "stride" ] ~doc:"Explore every N-th op.")

let max_points =
  Arg.(
    value & opt int 0
    & info [ "max-points" ]
        ~doc:"Cap on explored points; widens the stride when exceeded.")

let at =
  Arg.(
    value
    & opt (some int) None
    & info [ "at" ] ~doc:"Explore (replay) a single op index.")

let second_at =
  Arg.(
    value
    & opt (some int) None
    & info [ "second-at" ]
        ~doc:"With --at: also crash the recovery at this recovery-op index.")

let second =
  Arg.(
    value & opt int 0
    & info [ "second" ]
        ~doc:
          "Per primary crash point, also crash the recovery at N sampled \
           recovery-op indices and recover again (double-recovery check).")

let fresh =
  Arg.(
    value & flag
    & info [ "fresh" ]
        ~doc:
          "Explore from an empty directory: instance creation (region \
           table, logs, heap) is part of the crash surface.  Much larger \
           op counts; combine with --stride/--max-points.")

let serving =
  Arg.(
    value & flag
    & info [ "serving" ]
        ~doc:
          "Explore a serving workload with forced rejections: each \
           committed update is preceded by a request shed by the \
           admission policy and by an admitted transaction cancelled \
           mid-flight.  The invariant then proves rejected requests \
           leave zero persistent side effects at every crash point.")

let count_only =
  Arg.(
    value & flag
    & info [ "count-only" ] ~doc:"Print the persistence-op count and exit.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-point log.")

let fsck =
  Arg.(
    value & flag
    & info [ "fsck" ]
        ~doc:
          "Run the offline image analyzer (pmfsck) over every recovered \
           image; any finding fails the point.")

let pmcheck =
  Arg.(
    value & flag
    & info [ "pmcheck" ]
        ~doc:
          "Run every phase under the durability sanitizer; any violation \
           fails the point.")

let report =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Write a JSON report of the sweep (points, failures) to FILE.")

let cmd =
  Cmd.v
    (Cmd.info "crash_explore"
       ~doc:
         "Crash at every persistence boundary, recover, verify (paper \
          section 6.2, exhaustively)")
    Term.(
      const run $ txns $ seed $ dir $ from_ $ to_ $ stride $ max_points $ at
      $ second_at $ second $ fresh $ serving $ count_only $ verbose $ fsck
      $ pmcheck $ report)

let () = exit (Cmd.eval' cmd)
