module Pmem = Region.Pmem

type cfg = {
  seed : int;
  threads : int;
  txns : int;  (* per thread *)
  nslots : int;
  policy : Sim.Schedule.policy;
  undo : bool;  (* Eager_undo instead of Lazy_redo *)
  zero_lat : bool;  (* zero software-overhead latency model *)
  lease : int;  (* Txn.config.ts_lease (1 = legacy shared counter) *)
  stripes : int;  (* Txn.config.lock_stripes *)
  group_commit : bool;  (* share the durability fence across commits *)
  pipeline : bool;  (* pipelined commit, with a Sim.Service drainer *)
  cm_adaptive : bool;  (* adaptive contention manager (wait-die) *)
  admission : bool;  (* serving-style admission: shed + cancel some txns *)
  trace : bool;
  pmcheck : bool;  (* run under the durability sanitizer *)
  race : bool;  (* run under the happens-before race detector *)
  dir : string;
}

let default_cfg ~dir =
  {
    seed = 0;
    threads = 3;
    txns = 8;
    nslots = 16;
    policy = Sim.Schedule.Seeded_shuffle;
    undo = false;
    zero_lat = false;
    lease = 1;
    stripes = 1;
    group_commit = false;
    pipeline = false;
    cm_adaptive = false;
    admission = false;
    trace = false;
    pmcheck = false;
    race = false;
    dir;
  }

(* Under the default latency model every software step costs distinct,
   positive time, so few events ever fall due at the same instant — the
   tiebreak policy rarely gets a decision to make.  Zeroing the software
   overheads collapses whole code paths onto single ticks: every yield
   becomes a same-time tie and the policy chooses the interleaving.
   This is the adversarial mode — a race that needs two threads to hit
   a window "simultaneously" is unreachable under the default costs but
   plainly visible here. *)
let zero_lat_latency =
  {
    Scm.Latency_model.default with
    cache_hit_ns = 0;
    wc_post_ns = 0;
    bit_pack_ns_per_word = 0;
    stm_access_ns = 0;
    txn_begin_ns = 0;
    txn_commit_ns = 0;
    timestamp_ns = 0;
  }

let latency cfg =
  if cfg.zero_lat then zero_lat_latency else Scm.Latency_model.default

type outcome = {
  schedule : Sim.Schedule.t;
  history : Mtm.History.t;
  violations : string list;
  commits : int;
  ro_commits : int;
  aborts : int;
  contention : int;
  sim_ns : int;
  replay_leftover : int;
  replay_extra : int;
  race_ops : int;
  obs : Obs.t;
}

let geometry =
  { Mnemosyne.scm_frames = 2048; heap_superblocks = 64;
    heap_large_bytes = 256 * 1024 }

let mtm_config cfg =
  {
    Mtm.Txn.default_config with
    nthreads = cfg.threads;
    log_cap_words = 8192;
    version_mgmt = (if cfg.undo then Mtm.Txn.Eager_undo else Mtm.Txn.Lazy_redo);
    ts_lease = cfg.lease;
    lock_stripes = cfg.stripes;
    group_commit = cfg.group_commit;
    pipeline = cfg.pipeline;
    cm = (if cfg.cm_adaptive then Mtm.Txn.Cm_adaptive else Mtm.Txn.Cm_legacy);
  }

let reset_or_die dir =
  match Mnemosyne.reset_dir dir with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "sched_harness: %s" msg)

(* The instance lives in a subdirectory: [cfg.dir] itself holds saved
   schedule traces, which must survive the per-run instance reset. *)
let instance_dir cfg = Filename.concat cfg.dir "run"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* One run under [schedule]: the recorded schedule (or the replayed
   one) owns every same-time tiebreak and every backoff draw, so the
   pair (cfg, schedule trace) reproduces the run bit-exactly. *)
let run ?schedule cfg =
  let sched =
    match schedule with
    | Some s -> s
    | None -> Sim.Schedule.make ~seed:cfg.seed cfg.policy
  in
  ensure_dir cfg.dir;
  let idir = instance_dir cfg in
  reset_or_die idir;
  let obs = Obs.create ~tracing:cfg.trace () in
  let lat = latency cfg in
  let machine =
    Mnemosyne.prepare_machine ~geometry ~latency:lat ~seed:cfg.seed ~obs
      ~dir:idir ()
  in
  (* Installed before recovery so every page mapping is observed. *)
  let chk =
    if cfg.pmcheck then Some (Scm.Env.install_pmcheck machine) else None
  in
  let inst =
    Mnemosyne.open_instance ~geometry ~latency:lat ~mtm:(mtm_config cfg)
      ~seed:cfg.seed ~machine ~dir:idir ()
  in
  (* The shared array the transactions fight over, zeroed at setup time
     — before the history hook is installed, so the oracle's initial
     image is exactly all-zeroes. *)
  let data = Stress.ensure_data ~root:"sched.data" ~nslots:cfg.nslots inst in
  let pool = Mnemosyne.pool inst in
  let hist = Mtm.History.create () in
  Mtm.Txn.set_history_hook pool (Some (Mtm.History.add hist));
  Mtm.Txn.set_backoff_draw pool
    (Some (fun bound -> Sim.Schedule.draw sched ~bound));
  let sim = Sim.create ~schedule:sched () in
  (* The race detector sees the run through the sim's own fiber ids and
     clock: HB edges come from real synchronization (spawn, wake→unpark
     token delivery, lock hand-offs, queue push/pop), never from plain
     yields — so a race is flagged on every schedule that could reorder
     the two accesses, not just the one where the bad interleaving
     fired.  Installed before any fiber is spawned, removed after the
     run; rendered races join [violations] like serializability
     failures. *)
  let det =
    if cfg.race then
      Some
        (Check.Racecheck.create
           ~fiber:(fun () -> Sim.current_proc sim)
           ~now:(fun () -> Sim.now sim)
           ())
    else None
  in
  let race_hooks = Option.map Check.Racecheck.hooks det in
  Sim.set_race sim race_hooks;
  Mtm.Txn.set_race pool race_hooks;
  if cfg.trace then
    Sim.Schedule.set_observer sched
      (Some
         (fun ~index:_ ~key ->
           Obs.instant_at obs Obs.Trace.Sched_decision ~ts:(Sim.now sim)
             ~arg:key));
  let contention = ref 0 in
  (* Pipelined runs get one drainer daemon sweeping every thread's
     pending write-backs, woken by commits and stopped by the last
     worker to finish. *)
  let drainers =
    if cfg.pipeline then
      Some (Mtm.Txn.Drainers.start ~per:cfg.threads sim pool)
    else None
  in
  (* Serving-style admission over the fuzz workload: one policy shared
     by the workers, with synthetic queue depths forcing a deterministic
     mix of (a) requests shed before any transaction exists, (b)
     admitted requests cancelled mid-flight after staging their writes,
     and (c) requests that commit normally.  The serializability check
     against final memory is what proves (a) and (b) leave zero
     persistent side effects under every explored interleaving. *)
  let adm =
    if cfg.admission then
      Some
        (Serve.Admission.make
           { Serve.Admission.queue_cap = 4; log_high_pct = 95; boost_pct = 0 })
    else None
  in
  (match adm with
  | Some a -> Serve.Admission.set_race a race_hooks
  | None -> ());
  for i = 0 to cfg.threads - 1 do
    Sim.spawn sim (fun () ->
        let env =
          Scm.Env.view machine
            ~delay:(fun ns -> Sim.delay sim ns)
            ~now:(fun () -> Sim.now sim)
        in
        let th = Mnemosyne.thread inst i env in
        for t = 0 to cfg.txns - 1 do
          let { Workload.Stress_model.reads; writes } =
            Workload.Stress_model.txn_rw ~nslots:cfg.nslots ~seed:cfg.seed
              ~thread:i ~t ()
          in
          let body ~cancel tx =
            (* fold the reads into the written values: a stale read
               becomes divergent final memory, not just a history
               footnote *)
            let acc =
              List.fold_left
                (fun acc s ->
                  Int64.logxor acc (Mtm.Txn.load tx (data + (8 * s))))
                0L reads
            in
            List.iter
              (fun (s, v) ->
                let v = if cancel then Int64.lognot v else v in
                Mtm.Txn.store tx (data + (8 * s)) (Int64.logxor v acc))
              writes;
            (* a mid-flight rejection: the stores above are staged (and
               under eager undo already in memory) — cancelling must
               retract every one of them *)
            if cancel then Mtm.Txn.cancel tx
          in
          let decision =
            match adm with
            | None -> `Admit
            | Some adm -> (
                let synth_queue = ((3 * i) + (7 * t)) mod 8 in
                match
                  Serve.Admission.admit_enqueue adm ~queue_len:synth_queue
                with
                | Error _ -> `Shed
                | Ok () -> (
                    let used, cap = Mtm.Txn.log_occupancy th in
                    match Serve.Admission.admit_dispatch adm ~used ~cap with
                    | Error _ -> `Shed
                    | Ok () ->
                        if ((5 * i) + t) mod 6 = 1 then `Cancel else `Admit))
          in
          match decision with
          | `Shed -> ()
          | (`Admit | `Cancel) as d -> (
              match Mtm.Txn.run th (body ~cancel:(d = `Cancel)) with
              | () -> ()
              | exception Mtm.Txn.Cancelled -> ()
              | exception Mtm.Txn.Contention -> incr contention)
        done;
        Option.iter Mtm.Txn.Drainers.worker_done drainers)
  done;
  Sim.run sim;
  Mtm.Txn.set_history_hook pool None;
  Mtm.Txn.set_backoff_draw pool None;
  Mtm.Txn.set_drain_wake pool None;
  Mtm.Txn.set_race pool None;
  Sim.set_race sim None;
  Sim.Schedule.set_observer sched None;
  let view = Mnemosyne.view inst in
  let violations =
    Mtm.History.check hist
      ~initial:(fun _ -> 0L)
      ~final:(fun addr -> Pmem.load_nt view addr)
  in
  let violations =
    match chk with
    | None -> violations
    | Some chk ->
        violations @ List.map Scm.Pmcheck.render (Scm.Pmcheck.violations chk)
  in
  let violations =
    match det with
    | None -> violations
    | Some det ->
        violations
        @ List.map Check.Racecheck.render (Check.Racecheck.races det)
  in
  let stats = Mtm.Txn.stats pool in
  {
    schedule = sched;
    history = hist;
    violations;
    commits = stats.Mtm.Txn.commits;
    ro_commits = stats.Mtm.Txn.read_only_commits;
    aborts = stats.Mtm.Txn.aborts;
    contention = !contention;
    sim_ns = Sim.now sim;
    replay_leftover = Sim.Schedule.replay_leftover sched;
    replay_extra = Sim.Schedule.replay_extra sched;
    race_ops = (match det with None -> 0 | Some d -> Check.Racecheck.ops d);
    obs;
  }

(* The trace header carries the workload shape, so a trace file alone
   reconstructs the run it recorded. *)
let save_schedule outcome cfg path =
  let s = outcome.schedule in
  Sim.Schedule.set_meta s "threads" (string_of_int cfg.threads);
  Sim.Schedule.set_meta s "txns" (string_of_int cfg.txns);
  Sim.Schedule.set_meta s "nslots" (string_of_int cfg.nslots);
  Sim.Schedule.set_meta s "undo" (if cfg.undo then "1" else "0");
  Sim.Schedule.set_meta s "zero_lat" (if cfg.zero_lat then "1" else "0");
  Sim.Schedule.set_meta s "lease" (string_of_int cfg.lease);
  Sim.Schedule.set_meta s "stripes" (string_of_int cfg.stripes);
  Sim.Schedule.set_meta s "group_commit" (if cfg.group_commit then "1" else "0");
  Sim.Schedule.set_meta s "pipeline" (if cfg.pipeline then "1" else "0");
  Sim.Schedule.set_meta s "cm" (if cfg.cm_adaptive then "adaptive" else "legacy");
  Sim.Schedule.set_meta s "admission" (if cfg.admission then "1" else "0");
  Sim.Schedule.set_meta s "pmcheck" (if cfg.pmcheck then "1" else "0");
  Sim.Schedule.set_meta s "race" (if cfg.race then "1" else "0");
  Sim.Schedule.save s path

let cfg_of_schedule ~dir sched =
  let d = default_cfg ~dir in
  let geti key fallback =
    match Sim.Schedule.meta sched key with
    | Some s -> ( match int_of_string_opt s with Some n -> n | None -> fallback)
    | None -> fallback
  in
  {
    d with
    seed = Sim.Schedule.seed sched;
    policy = Sim.Schedule.policy sched;
    threads = geti "threads" d.threads;
    txns = geti "txns" d.txns;
    nslots = geti "nslots" d.nslots;
    undo = Sim.Schedule.meta sched "undo" = Some "1";
    zero_lat = Sim.Schedule.meta sched "zero_lat" = Some "1";
    lease = geti "lease" d.lease;
    stripes = geti "stripes" d.stripes;
    group_commit = Sim.Schedule.meta sched "group_commit" = Some "1";
    pipeline = Sim.Schedule.meta sched "pipeline" = Some "1";
    cm_adaptive = Sim.Schedule.meta sched "cm" = Some "adaptive";
    admission = Sim.Schedule.meta sched "admission" = Some "1";
    pmcheck = Sim.Schedule.meta sched "pmcheck" = Some "1";
    race = Sim.Schedule.meta sched "race" = Some "1";
  }
