(* Open-loop serving workloads: [Serve.run] over 4 tenants and 8
   workers, arrivals generated on the simulated clock from the seed.

   - serve_steady: Poisson arrivals at 700k requests/s in all, about
     0.65x what this configuration serves within its 500 us SLO.  Zipf
     0.99 over 100k keys per tenant, 50% gets, 2048-word RAWLs, one
     drainer per 4 workers sweeping as soon as woken.  Nothing is shed;
     queueing, hot-key B+ tree conflicts and the commit path set the
     latency.  The four trees grow far past the 512 KiB cache.
   - serve_overload: MMPP bursts (ON 150k/s, OFF 40k/s per tenant,
     400 us mean sojourns), about 1.65x capacity on average.  Zipf 0.2
     over 50k keys, 20% gets, 256-word RAWLs and a single drainer that
     runs once per 60 us: the starved log manager of the paper's figure
     6, where the RAWL, the drainer and admission control decide goodput.

   Arrivals fire exactly on schedule in simulated time, so the
   generator is never late; each request is timed from its arrival.
   [Serve.run] is opaque from outside: the traced run reports its
   counters, not spans. *)

let geometry =
  { Mnemosyne.scm_frames = 16384; heap_superblocks = 4096;
    heap_large_bytes = 8 * 1024 * 1024 }

let config ~overload ~quick ~seed =
  let duration_ns =
    if quick then 2_000_000 else if overload then 200_000_000 else 400_000_000
  in
  let base =
    {
      Serve.default_config with
      tenants = 4;
      workers = 8;
      duration_ns;
      admission = Serve.Admission.default;
      value_bytes = 128;
      seed;
      request_ns = 2_000;
      slo_ns = 500_000;
    }
  in
  if overload then
    {
      base with
      users = 50_000;
      arrival =
        Sim.Arrival.Mmpp
          {
            on_rate_per_s = 150_000.0;
            off_rate_per_s = 40_000.0;
            mean_on_ns = 400_000.0;
            mean_off_ns = 400_000.0;
          };
      get_pct = 20;
      theta = 0.2;
      log_cap_words = 256;
      workers_per_drainer = 8;
      drain_period_ns = 60_000;
    }
  else
    {
      base with
      users = 100_000;
      arrival = Sim.Arrival.Poisson 175_000.0;
      get_pct = 50;
      theta = 0.99;
      log_cap_words = 2048;
      workers_per_drainer = 4;
      drain_period_ns = 0;
    }

(* The arrival window is cut into [slices] by a fiber of the
   benchmark's own, which touches nothing else: events are ordered by
   (time, creation), so the workload's events keep their order and
   every simulated figure is unchanged. *)
let slices = 40

let timed_run ~dir cfg =
  Meas.rm_rf dir;
  Meas.mkdir_p dir;
  let sim = Sim.create () in
  let step = max 1 (cfg.Serve.duration_ns / slices) in
  let slicer = ref (Meas.slicer ()) in
  Sim.spawn sim (fun () ->
      slicer := Meas.slicer ();
      while Sim.now sim + (2 * step) <= cfg.Serve.duration_ns do
        Sim.delay sim step;
        Meas.cut !slicer
      done);
  let minor0 = Gc.minor_words () in
  let c0 = Meas.cpu_s () in
  let st = Serve.run ~sim ~geometry ~dir cfg in
  let cpu = Meas.cpu_s () -. c0 -. Meas.kernel_total !slicer in
  let heap_mb = Meas.top_heap_mb () in
  (* requests completed in the sliced part of the window, pro rata *)
  let slice_ops =
    float_of_int st.Serve.completed
    *. float_of_int (step * List.length !slicer.Meas.slices)
    /. float_of_int st.Serve.window_ns
  in
  (st, cpu, Gc.minor_words () -. minor0, (!slicer, slice_ops, heap_mb))

(* Every offered request was either completed or shed, and the image
   the run left behind reopens (recovery included) with a clean
   pmfsck pass. *)
let checks ~dir cfg (st : Serve.stats) =
  let inst =
    Mnemosyne.open_instance ~geometry
      ~mtm:
        {
          Mtm.Txn.default_config with
          nthreads = cfg.Serve.workers;
          log_cap_words = cfg.Serve.log_cap_words;
        }
      ~dir ()
  in
  let report = Check.Pmfsck.run (Mnemosyne.view inst) in
  if not (Check.Pmfsck.ok report) then
    prerr_string (Check.Pmfsck.render report);
  [
    ( "offered_eq_completed_plus_shed",
      st.offered = st.completed + st.shed_queue + st.shed_log );
    ("requests_completed", st.completed > 0);
    ("pmfsck_clean_after_reopen", Check.Pmfsck.ok report);
  ]

let sample ~dir cfg ~check =
  let st, _, _, (slicer, slice_ops, heap_mb) = timed_run ~dir cfg in
  let checks = if check then checks ~dir cfg st else [] in
  Meas.rm_rf dir;
  let m = Meas.metric in
  {
    Meas.setup_cpu = None;
    slicer;
    slice_ops;
    heap_mb;
    sim =
      [
        m "p50_us" "sim_us" ~n:st.Serve.completed st.p50_us;
        m "p99_us" "sim_us" ~n:st.completed st.p99_us;
        m "throughput_per_s" "1/sim_s" ~n:st.completed st.goodput_per_s;
      ];
    info = [ m "p999_us" "sim_us" ~n:st.completed st.p999_us ];
    fingerprint =
      Printf.sprintf "%d %d %d %d %d %d %d" st.offered st.completed st.slo_ok
        st.shed_queue st.shed_log st.aborts st.window_ns;
    checks;
    attempted = st.offered;
    failed = st.offered - st.completed - st.shed_queue - st.shed_log;
  }

(* Set-up is a run with an empty arrival window: the instance, the
   tenant trees and the fibers, and nothing served. *)
let setup_cpu ~dir cfg () =
  let _, cpu, _, _ = timed_run ~dir { cfg with Serve.duration_ns = 0 } in
  Meas.rm_rf dir;
  cpu

let untraced ~name ~dir ~seconds cfg =
  Meas.untraced ~name ~seconds
    ~rep:(fun ~check -> sample ~dir cfg ~check)
    ~setup:(setup_cpu ~dir cfg)

let traced ~dir cfg =
  let st, cpu, minor, _ = timed_run ~dir cfg in
  Meas.rm_rf dir;
  let per x = Meas.ratio x st.Serve.completed in
  let frac x = Meas.ratio x st.Serve.offered in
  let m = Meas.metric in
  let n = st.completed in
  ( st,
    cpu,
    [
      m "mtm.aborts_per_op" "count" ~n (per st.aborts);
      m "mtm.minor_words_per_op" "words" ~n (minor /. float_of_int (max 1 n));
      m "pmlog.stalls_per_op" "count" ~n (per st.log_full_stalls);
      m "serve.shed_queue_frac" "fraction" ~n:st.offered (frac st.shed_queue);
      m "serve.shed_log_frac" "fraction" ~n:st.offered (frac st.shed_log);
      m "serve.max_queue_depth" "count" ~n:st.offered
        (float_of_int st.max_queue_depth);
      m "serve.tenant_p99_max_us" "sim_us" ~n
        (Array.fold_left Float.max 0.0 st.tenant_p99_us);
      m "serve.contention_per_req" "count" ~n (per st.contention);
      m "serve.drain_boosts_per_req" "count" ~n (per st.drain_boosts);
      m "serve.drain_tail_us" "sim_us" ~n:1
        (float_of_int (st.window_ns - cfg.Serve.duration_ns) /. 1e3);
      m "sim.run_host_s" "s" ~n:1 cpu;
    ] )
