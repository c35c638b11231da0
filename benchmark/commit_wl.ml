(* Closed-loop commit workloads: 16 simulated fibers, each running
   [Mtm.Txn.run] back to back on the pipelined commit path (Serve's
   configuration: timestamp lease 32, 8 lock stripes, group commit,
   pipe window 32, adaptive contention manager, one write-back drainer
   per 4 fibers).  A transaction does 4 loads and 8 load+store
   increments.

   - commit_disjoint: each fiber owns a 256-word, line-aligned window
     (32 KiB in all, well inside the 512 KiB cache), so nothing
     conflicts and the bare durable-commit path is what runs.
   - commit_contended: every fiber shares one 64-word (8-line) slab, so
     the lock table and the contention manager do most of the work.

   Latency is the simulated time of one [Txn.run] call, retries
   included; throughput is commits per simulated second from the moment
   every fiber is bound to the last commit. *)

let reads = 4
let writes = 8
let per_op = reads + writes
let window_words = 256
let shared_words = 64

type shape = { fibers : int; txns : int; contended : bool }

let shape ~quick ~contended =
  let txns =
    match (quick, contended) with
    | true, _ -> 150
    | false, false -> 20_000
    | false, true -> 12_000
  in
  { fibers = 16; txns; contended }

let slab_words s = if s.contended then shared_words else s.fibers * window_words
let span_words s = if s.contended then shared_words else window_words
let workers_per_drainer = 4

(* The timed section is cut every 1/[slices] of the commits. *)
let slices = 40

let mtm_config ~threads =
  {
    Mtm.Txn.default_config with
    nthreads = threads;
    log_cap_words = 2048;
    ts_lease = 32;
    lock_stripes = 8;
    group_commit = true;
    gc_trunc_batch = 32;
    pipeline = true;
    pipe_window = 32;
    cm = Mtm.Txn.Cm_adaptive;
  }

let geometry =
  { Mnemosyne.scm_frames = 2048; heap_superblocks = 64;
    heap_large_bytes = 256 * 1024 }

(* The generated inputs: for every fiber, [txns] records of 12 word
   offsets into its window (4 to read, 8 to increment), one byte each. *)
let inputs ~seed s =
  Array.init s.fibers (fun f ->
      let rng = Random.State.make [| seed; f; 0xc0 |] in
      Bytes.init (s.txns * per_op) (fun _ ->
          Char.chr (Random.State.int rng (span_words s))))

(* What every word of the slab must hold after [txns] commits per
   fiber: increments commute, so the final value of a word is the
   number of increments aimed at it, whatever the interleaving. *)
let model s inputs =
  let m = Array.make (slab_words s) 0L in
  Array.iteri
    (fun f inp ->
      let base = if s.contended then 0 else f * window_words in
      for k = 0 to s.txns - 1 do
        for j = reads to per_op - 1 do
          let w = base + Char.code (Bytes.get inp ((k * per_op) + j)) in
          m.(w) <- Int64.succ m.(w)
        done
      done)
    inputs;
  m

type rep = {
  setup_cpu : float;
  run_cpu : float;
  run_host_ns : int;  (* monotonic host ns of Sim.run, traced reps only *)
  slicer : Meas.slicer;
  slice_ops : int;
  minor_words : float;
  heap_mb : float;
  commits : int;
  lat : int array;  (* sorted simulated ns per Txn.run *)
  window_ns : int;
  aborts : int;
  contention : int;
  checks : (string * bool) list;
  layers : Meas.metric list;  (* traced repetitions only *)
}

(* The public counters the traced run differences over the window. *)
type counters = {
  fences : int;
  flushes : int;
  dev_writes : int;
  appends : int;
  false_conflicts : int;
  aborts : int;
  stalls : int;
  backoff_ns : int;
  cm_waits : int;
}

let counters inst =
  let c name =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter (Mnemosyne.obs inst).Obs.metrics name)
  in
  let pool = Mnemosyne.pool inst in
  let st = Mtm.Txn.stats pool in
  {
    fences = c "scm.fences";
    flushes = c "scm.flushes";
    dev_writes =
      Scm.Scm_device.total_writes (Mnemosyne.machine inst).Scm.Env.dev;
    appends = c "log.appends";
    false_conflicts = c "mtm.lock.false_conflicts";
    aborts = st.Mtm.Txn.aborts;
    stalls = st.Mtm.Txn.log_full_stalls;
    backoff_ns = Mtm.Txn.backoff_ns pool;
    cm_waits = Mtm.Txn.cm_waits pool;
  }

let since a b =
  {
    fences = a.fences - b.fences;
    flushes = a.flushes - b.flushes;
    dev_writes = a.dev_writes - b.dev_writes;
    appends = a.appends - b.appends;
    false_conflicts = a.false_conflicts - b.false_conflicts;
    aborts = a.aborts - b.aborts;
    stalls = a.stalls - b.stalls;
    backoff_ns = a.backoff_ns - b.backoff_ns;
    cm_waits = a.cm_waits - b.cm_waits;
  }

(* One repetition from an empty directory.  [check] reincarnates the
   instance afterwards and compares the slab with the model; [trace]
   wraps the benchmark's closures in a recorder. *)
let rep ~dir ~seed ~inputs ?(check = false) ?trace s =
  Meas.rm_rf dir;
  Meas.mkdir_p dir;
  let cpu0 = Meas.cpu_s () in
  let sim = Sim.create () in
  let inst =
    Mnemosyne.open_instance ~geometry ~mtm:(mtm_config ~threads:s.fibers)
      ~seed ~dir ()
  in
  let machine = Mnemosyne.machine inst in
  let pool = Mnemosyne.pool inst in
  let slot = Mnemosyne.pstatic inst "bench.slab" 8 in
  (* one spare line so the slab can start on a line boundary: a line
     shared by two windows would couple "disjoint" fibers through its
     lock *)
  let raw = Mnemosyne.pmalloc inst ((slab_words s * 8) + 64) ~slot in
  let slab = (raw + 63) land lnot 63 in
  (* Prefault every page of the slab from the main fiber.  Two fibers
     faulting one fresh page at once can each map a frame for it
     (Region.Manager.fault_in yields between the lookup and the
     install), and stores to the losing frame vanish at restart; see
     README.md, "Known bug". *)
  let main = Mnemosyne.view inst in
  let initial = Array.make (slab_words s) 0L in
  for w = 0 to slab_words s - 1 do
    initial.(w) <- Region.Pmem.load main (slab + (8 * w))
  done;
  let nfib = s.fibers in
  let nshards = max 1 (nfib / workers_per_drainer) in
  let tr =
    Option.map
      (fun span_ops -> Spans.create sim ~fibers:(nfib + nshards) ~span_ops)
      trace
  in
  let env_of f =
    let delay =
      match tr with
      | None -> fun ns -> Sim.delay sim ns
      | Some tr -> fun ns -> Spans.delay tr f ns
    in
    Scm.Env.view machine ~delay ~now:(fun () -> Sim.now sim)
  in
  let svcs =
    Array.init nshards (fun k ->
        let dview = Region.Pmem.view (Mtm.Txn.pmem pool) (env_of (nfib + k)) in
        let work () = Mtm.Txn.drain_pipeline ~shard:(k, nshards) pool dview in
        let work =
          match tr with
          | None -> work
          | Some tr -> Spans.drain_work tr (nfib + k) work
        in
        Sim.Service.spawn sim ~work)
  in
  let wake tid = Sim.Service.wake svcs.(tid mod nshards) in
  Mtm.Txn.set_drain_wake pool
    (Some (match tr with None -> wake | Some tr -> Spans.wake tr wake));
  let lat = Array.make (nfib * s.txns) 0 in
  let bound = ref 0 in
  let waiting = ref [] in
  let t0 = ref 0 in
  let t_end = ref 0 in
  let setup_end = ref 0.0 in
  let minor0 = ref 0.0 in
  let contention = ref 0 in
  let running = ref nfib in
  let slice_ops = max 1 (nfib * s.txns / slices) in
  let done_ops = ref 0 in
  let slicer = ref (Meas.slicer ()) in
  let at_start = ref (counters inst) in
  (* Every fiber binds its thread slot, then waits here; the last one
     to arrive opens the measured window for all of them. *)
  let barrier () =
    incr bound;
    if !bound = nfib then begin
      t0 := Sim.now sim;
      at_start := counters inst;
      Option.iter Spans.start tr;
      setup_end := Meas.cpu_s ();
      minor0 := Gc.minor_words ();
      slicer := Meas.slicer ();
      List.iter (fun resume -> resume ()) !waiting
    end
    else Sim.suspend sim (fun resume -> waiting := resume :: !waiting)
  in
  for f = 0 to nfib - 1 do
    Sim.spawn sim (fun () ->
        let env = env_of f in
        let th = Mnemosyne.thread inst f env in
        barrier ();
        Option.iter (fun tr -> Spans.seg_begin tr f) tr;
        let base =
          if s.contended then slab else slab + (8 * window_words * f)
        in
        let inp = inputs.(f) in
        for k = 0 to s.txns - 1 do
          let o = k * per_op in
          let addr j = base + (8 * Char.code (Bytes.unsafe_get inp (o + j))) in
          let body tx =
            for j = 0 to reads - 1 do
              ignore (Mtm.Txn.load tx (addr j))
            done;
            for j = reads to per_op - 1 do
              let a = addr j in
              Mtm.Txn.store tx a (Int64.succ (Mtm.Txn.load tx a))
            done
          in
          let body =
            match tr with None -> body | Some tr -> Spans.body tr f env body
          in
          let start = Sim.now sim in
          Option.iter (fun tr -> Spans.op_begin tr f) tr;
          let rec go () =
            try Mtm.Txn.run th body
            with Mtm.Txn.Contention ->
              incr contention;
              env.Scm.Env.delay 2_000;
              go ()
          in
          go ();
          Option.iter (fun tr -> Spans.op_end tr f) tr;
          lat.((f * s.txns) + k) <- Sim.now sim - start;
          incr done_ops;
          (* the traced run leaves the kernel out of its segments *)
          if tr = None && !done_ops mod slice_ops = 0 then Meas.cut !slicer
        done;
        t_end := max !t_end (Sim.now sim);
        Option.iter (fun tr -> Spans.seg_end tr f) tr;
        decr running;
        if !running = 0 then Array.iter Sim.Service.stop svcs)
  done;
  Sim.run sim;
  let run_cpu = Meas.cpu_s () -. !setup_end -. Meas.kernel_total !slicer in
  let run_host_ns =
    match tr with None -> 0 | Some tr -> Meas.mono_ns () - tr.Spans.epoch
  in
  let minor_words = Gc.minor_words () -. !minor0 in
  let heap_mb = Meas.top_heap_mb () in
  let commits = nfib * s.txns in
  let d = since (counters inst) !at_start in
  let window_ns = max 1 (!t_end - !t0) in
  let checks =
    if not check then []
    else begin
      (* An adversarial crash and reboot: what survives is exactly what
         a power failure would leave. *)
      let inst' = Mnemosyne.reincarnate inst in
      let v = Mnemosyne.view inst' in
      let gained =
        Array.init (slab_words s) (fun w ->
            Int64.sub (Region.Pmem.load v (slab + (8 * w))) initial.(w))
      in
      Mnemosyne.close inst';
      [
        ("all_ops_committed", (Mtm.Txn.stats pool).Mtm.Txn.commits >= commits);
        ( "slab_sum_is_8_per_commit",
          Array.fold_left Int64.add 0L gained
          = Int64.of_int (writes * commits) );
        ("every_word_matches_model", gained = model s inputs);
      ]
    end
  in
  Meas.rm_rf dir;
  Array.sort compare lat;
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let per x = Meas.ratio x commits in
        let group =
          Obs.Metrics.hmean
            (Obs.Metrics.histogram (Mnemosyne.obs inst).Obs.metrics
               "mtm.gc.group_size")
        in
        let m = Meas.metric in
        [
          m "scm.fences_per_op" "count" ~n:commits (per d.fences);
          m "scm.flushes_per_op" "count" ~n:commits (per d.flushes);
          m "scm.dev_writes_per_op" "count" ~n:commits (per d.dev_writes);
          m "sim.delays_per_op" "count" ~n:commits (per tr.Spans.delays);
          m "sim.sched_host_ns_per_op" "ns" ~n:commits
            (per (run_host_ns - Spans.host_total tr));
          m "mtm.access_sim_ns" "sim_ns" ~n:commits (per tr.Spans.access_sim);
          m "mtm.access_host_ns" "ns" ~n:commits
            (per tr.Spans.host.(Spans.ph_access));
          m "mtm.commit_sim_ns" "sim_ns" ~n:commits
            (per (tr.Spans.run_sim - tr.Spans.access_sim));
          m "mtm.commit_host_ns" "ns" ~n:commits
            (per tr.Spans.host.(Spans.ph_commit));
          m "mtm.attempts_per_op" "count" ~n:commits (per tr.Spans.attempts);
          m "mtm.aborts_per_op" "count" ~n:commits (per d.aborts);
          m "mtm.backoff_sim_ns_per_op" "sim_ns" ~n:commits (per d.backoff_ns);
          m "mtm.cm_waits_per_op" "count" ~n:commits (per d.cm_waits);
          m "mtm.false_conflicts_per_abort" "count" ~n:d.aborts
            (Meas.ratio d.false_conflicts d.aborts);
          m "pmlog.appends_per_op" "count" ~n:commits (per d.appends);
          m "pmlog.group_size" "count" ~n:commits group;
          m "pmlog.drain_sweeps_per_op" "count" ~n:commits
            (per tr.Spans.sweeps);
          m "pmlog.drain_wakes_per_op" "count" ~n:commits (per tr.Spans.wakes);
          m "pmlog.drain_busy_frac" "fraction" ~n:nshards
            (float_of_int tr.Spans.drain_sim
            /. float_of_int (nshards * window_ns));
          m "pmlog.drain_host_ns_per_op" "ns" ~n:commits
            (per tr.Spans.host.(Spans.ph_drain));
          m "pmlog.stalls_per_op" "count" ~n:commits (per d.stalls);
        ]
  in
  ( {
      setup_cpu = !setup_end -. cpu0;
      run_cpu;
      run_host_ns;
      slicer = !slicer;
      slice_ops;
      minor_words;
      heap_mb;
      commits;
      lat;
      window_ns;
      aborts = d.aborts;
      contention = !contention;
      checks;
      layers;
    },
    tr )

let sample r =
  let m = Meas.metric in
  let us p = Meas.percentile r.lat p /. 1e3 in
  let n = r.commits in
  {
    Meas.setup_cpu = Some r.setup_cpu;
    slicer = r.slicer;
    slice_ops = float_of_int (List.length r.slicer.Meas.slices * r.slice_ops);
    heap_mb = r.heap_mb;
    sim =
      [
        m "p50_us" "sim_us" ~n (us 50.0);
        m "p99_us" "sim_us" ~n (us 99.0);
        m "throughput_per_s" "1/sim_s" ~n
          (float_of_int n /. float_of_int r.window_ns *. 1e9);
      ];
    info = [ m "p999_us" "sim_us" ~n (us 99.9) ];
    fingerprint =
      Printf.sprintf "%d %d %d %d" r.window_ns r.aborts r.contention
        (Array.fold_left ( + ) 0 r.lat);
    checks = r.checks;
    attempted = n;
    failed = 0;
  }

let untraced ~name ~dir ~seed ~seconds s =
  let inp = inputs ~seed s in
  let idle = { s with txns = 0 } in
  Meas.untraced ~name ~seconds
    ~rep:(fun ~check -> sample (fst (rep ~dir ~seed ~inputs:inp ~check s)))
    ~setup:(fun () ->
      (fst (rep ~dir ~seed ~inputs:(inputs ~seed idle) idle)).setup_cpu)

let span_ops = 20_000

(* The traced run: one plain repetition (the reference for tracing
   overhead and allocation), then the same repetition traced.  Prints
   the two reconciliations and writes the Chrome trace. *)
let traced ~name ~dir ~seed ~trace_file ~probe_commit_ns ~probe_event_ns s =
  let inp = inputs ~seed s in
  let plain, _ = rep ~dir ~seed ~inputs:inp s in
  let r, tr = rep ~dir ~seed ~inputs:inp ~trace:span_ops s in
  let tr = Option.get tr in
  let n = r.commits in
  let lat_sum = Array.fold_left ( + ) 0 r.lat in
  let self = tr.Spans.run_sim - tr.Spans.access_sim in
  let sim_exact = tr.Spans.run_sim = lat_sum && tr.Spans.commit_self_min >= 0 in
  let per_us x = float_of_int x /. float_of_int n /. 1e3 in
  Printf.printf
    "reconcile %s sim: access %.4f us + commit self %.4f us = Txn.run %.4f us \
     per op; over %d ops %d ns %s the harness's latency sum %d ns\n"
    name (per_us tr.Spans.access_sim) (per_us self) (per_us tr.Spans.run_sim) n
    tr.Spans.run_sim
    (if sim_exact then "=" else "<>")
    lat_sum;
  let sec ns = float_of_int ns /. 1e9 in
  let segs = Spans.host_total tr in
  Printf.printf
    "reconcile %s host: segments %.4f s (%s) + scheduler %.4f s = Sim.run \
     %.4f s\n"
    name (sec segs)
    (String.concat ", "
       (Array.to_list
          (Array.mapi
             (fun i ph -> Printf.sprintf "%s %.4f" ph (sec tr.Spans.host.(i)))
             Spans.phase_names)))
    (sec (r.run_host_ns - segs))
    (sec r.run_host_ns);
  let predicted =
    (float_of_int n *. probe_commit_ns)
    +. (float_of_int tr.Spans.delays *. probe_event_ns)
  in
  (* against the untraced run: the end-to-end host time *)
  let e2e = plain.run_cpu *. 1e9 in
  Printf.printf
    "reconcile %s probes: %d commits x %.0f ns + %d delays x %.1f ns = %.4f s \
     vs untraced Sim.run %.4f s, residual %.4f s (%.1f%%)\n"
    name n probe_commit_ns tr.Spans.delays probe_event_ns (predicted /. 1e9)
    (e2e /. 1e9)
    ((e2e -. predicted) /. 1e9)
    (100.0 *. (e2e -. predicted) /. e2e);
  Spans.write_chrome tr ~path:trace_file ~fiber_name:(fun f ->
      if f < s.fibers then Printf.sprintf "fiber %d" f
      else Printf.sprintf "drainer %d" (f - s.fibers));
  let m = Meas.metric in
  ( [
      ("sim_reconciles_exactly", sim_exact);
      ("tracing_leaves_simulated_time_unchanged", r.lat = plain.lat);
    ],
    r.layers
    @ [
        m "mtm.minor_words_per_op" "words" ~n
          (plain.minor_words /. float_of_int n);
        m "sim.run_host_s" "s" ~n:1 plain.run_cpu;
        m "trace.overhead_frac" "fraction" ~n:1
          ((r.run_cpu /. plain.run_cpu) -. 1.0);
      ] )
