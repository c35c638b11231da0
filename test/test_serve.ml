(* Tests for the serving front-end: the log-full wake regression (a
   stalled producer must wake its parked drainer, and must never wait
   on one indefinitely), the admission policy's decision table, the
   open-loop arrival generators, and end-to-end serve smoke runs. *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "mnemoserve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let stack ?(seed = 3) dir =
  let m = Scm.Env.make_machine ~seed ~nframes:4096 () in
  let backing = Region.Backing_store.open_dir dir in
  let pmem = Region.Pmem.open_instance m backing in
  (m, pmem)

let sim_env sim (m : Scm.Env.machine) =
  Scm.Env.view m
    ~delay:(fun ns -> Sim.delay sim ns)
    ~now:(fun () -> Sim.now sim)

let data_region pmem bytes =
  let v = Region.Pmem.default_view pmem in
  let slot = Region.Pstatic.get v "test.data" 8 in
  match Int64.to_int (Region.Pmem.load v slot) with
  | 0 ->
      let base = Region.Pmem.pmap v bytes in
      Region.Pmem.wtstore v slot (Int64.of_int base);
      Region.Pmem.fence v;
      base
  | base -> base

(* ------------------------------------------------------------------ *)
(* The log-full wake regression (ISSUE 9, satellite 1)                 *)

(* A small pipelined pool whose window never backpressures: the only
   thing that can drain the log is the drainer daemon (or the stall
   path itself). *)
let stall_cfg =
  {
    Mtm.Txn.default_config with
    nthreads = 1;
    log_cap_words = 128;
    pipeline = true;
    pipe_window = 1024;
  }

(* A producer that fills the log while its drainer is parked, then
   commits once more.  The append finds the log full with every prior
   record still pending — historically it drained them inline, inside
   the producer, while the daemon that owns that work stayed parked.
   The fix wakes the daemon from the stall path, so the backlog must be
   retired by a daemon sweep that sees the whole backlog, not by the
   producer.  The wake hook and the sweep snapshot pin exactly that. *)
let test_stall_wakes_parked_drainer () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = Mtm.Txn.create_pool ~config:stall_cfg pmem None in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      let enabled = ref false in
      let sweeps = ref 0 in
      let max_pending_at_sweep = ref 0 in
      let wakes = ref 0 in
      let wakes_before_stall = ref 0 in
      let backlog = ref 0 in
      Sim.spawn sim (fun () ->
          let env = sim_env sim m in
          let th = Mtm.Txn.thread pool 0 env in
          let dview = Region.Pmem.view (Mtm.Txn.pmem pool) (sim_env sim m) in
          let svc =
            Sim.Service.spawn sim ~work:(fun () ->
                if not !enabled then false
                else begin
                  let pending = Mtm.Txn.pending_truncations th in
                  if pending > !max_pending_at_sweep then
                    max_pending_at_sweep := pending;
                  let did = Mtm.Txn.drain_pipeline pool dview in
                  if did then incr sweeps;
                  did
                end)
          in
          Mtm.Txn.set_drain_wake pool
            (Some
               (fun _tid ->
                 incr wakes;
                 Sim.Service.wake svc));
          let commit v = Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx data v) in
          (* phase A: fill the log with the daemon gated off.  Every
             push wakes it, but its work function refuses, so it parks
             again with the backlog intact.  One commit first to learn
             the per-record footprint, then stop exactly when the next
             record no longer fits. *)
          commit 1L;
          incr backlog;
          let span, cap =
            let used, cap = Mtm.Txn.log_occupancy th in
            (used, cap)
          in
          while
            (let used, _ = Mtm.Txn.log_occupancy th in
             cap - 1 - used >= span)
          do
            commit 2L;
            incr backlog
          done;
          Alcotest.(check int) "no stall while filling" 0
            (Mtm.Txn.stats pool).Mtm.Txn.log_full_stalls;
          Alcotest.(check int) "backlog all pending" !backlog
            (Mtm.Txn.pending_truncations th);
          (* let the daemon consume any leftover wake token and park *)
          Sim.delay sim 1_000;
          Alcotest.(check int) "daemon never swept while gated" 0 !sweeps;
          (* phase B: arm the daemon — parked, no token — and commit.
             The append must hit Full and resolve via a daemon sweep. *)
          enabled := true;
          wakes_before_stall := !wakes;
          commit 99L;
          Sim.Service.stop svc);
      Sim.run sim;
      Alcotest.(check int) "the commit stalled" 1
        (Mtm.Txn.stats pool).Mtm.Txn.log_full_stalls;
      (* the stall path woke the daemon itself: one wake during the
         stall plus the commit's own push wake *)
      Alcotest.(check bool) "stall path woke the drainer" true
        (!wakes - !wakes_before_stall >= 2);
      Alcotest.(check bool) "daemon swept" true (!sweeps >= 1);
      (* the discriminating observation: the daemon's sweep saw the
         whole backlog.  Inline self-draining (the old behavior) would
         leave the daemon only ever seeing the post-stall record. *)
      Alcotest.(check bool)
        (Printf.sprintf "daemon drained the backlog (saw %d of %d)"
           !max_pending_at_sweep !backlog)
        true
        (!max_pending_at_sweep >= !backlog);
      Alcotest.(check int64) "stalled commit completed" 99L
        (Region.Pmem.load (Region.Pmem.default_view pmem) data))

(* The other half of the liveness bound: when the wake goes nowhere —
   a dead or wrong-shard drainer that will never sweep — the producer
   must fall back to draining inline after a bounded wait rather than
   wedging forever.  The wait times out after 4096 * 60 ns; anything in
   that order plus the inline drain is fine, an unbounded wait is not. *)
let test_stall_bounded_without_drainer () =
  with_tmpdir (fun dir ->
      let m, pmem = stack dir in
      let pool = Mtm.Txn.create_pool ~config:stall_cfg pmem None in
      let data = data_region pmem 4096 in
      let sim = Sim.create () in
      let stall_ns = ref 0 in
      Sim.spawn sim (fun () ->
          let env = sim_env sim m in
          let th = Mtm.Txn.thread pool 0 env in
          (* a waker that drops every wake on the floor *)
          Mtm.Txn.set_drain_wake pool (Some (fun _tid -> ()));
          let commit v = Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx data v) in
          commit 1L;
          let span, cap =
            let used, cap = Mtm.Txn.log_occupancy th in
            (used, cap)
          in
          while
            (let used, _ = Mtm.Txn.log_occupancy th in
             cap - 1 - used >= span)
          do
            commit 2L
          done;
          let t0 = Sim.now sim in
          commit 99L;
          stall_ns := Sim.now sim - t0);
      Sim.run sim;
      Alcotest.(check int) "the commit stalled" 1
        (Mtm.Txn.stats pool).Mtm.Txn.log_full_stalls;
      Alcotest.(check int64) "stalled commit still completed" 99L
        (Region.Pmem.load (Region.Pmem.default_view pmem) data);
      if !stall_ns > 2_000_000 then
        Alcotest.failf "stalled commit took %d ns: fallback not bounded"
          !stall_ns)

(* ------------------------------------------------------------------ *)
(* Admission policy                                                    *)

let test_admission_legacy_admits_everything () =
  let a = Serve.Admission.make Serve.Admission.legacy in
  for q = 0 to 10_000 do
    match Serve.Admission.admit_enqueue a ~queue_len:q with
    | Error _ -> Alcotest.failf "legacy shed at queue_len %d" q
    | Ok () -> ()
  done;
  (match Serve.Admission.admit_dispatch a ~used:100 ~cap:100 with
  | Error _ -> Alcotest.fail "legacy shed a full log"
  | Ok () -> ());
  Alcotest.(check bool) "legacy never boosts" false
    (Serve.Admission.should_boost a ~used:100 ~cap:100);
  Alcotest.(check int) "nothing shed" 0 (Serve.Admission.shed a)

let test_admission_queue_cap () =
  let a =
    Serve.Admission.make
      { Serve.Admission.queue_cap = 4; log_high_pct = 0; boost_pct = 0 }
  in
  let ok = ref 0 and shed = ref 0 in
  for q = 0 to 7 do
    match Serve.Admission.admit_enqueue a ~queue_len:q with
    | Ok () -> incr ok
    | Error r ->
        Alcotest.(check bool) "reason" true (r = Serve.Admission.Queue_full);
        incr shed
  done;
  Alcotest.(check int) "admitted below the cap" 4 !ok;
  Alcotest.(check int) "shed at and above the cap" 4 !shed;
  Alcotest.(check int) "counted" 4 (Serve.Admission.shed_queue a);
  Alcotest.(check int) "admitted counted" 4 (Serve.Admission.admitted a)

let test_admission_log_gate_and_boost () =
  let a =
    Serve.Admission.make
      { Serve.Admission.queue_cap = 0; log_high_pct = 85; boost_pct = 60 }
  in
  let cap = 200 in
  let dispatch used =
    Result.is_ok (Serve.Admission.admit_dispatch a ~used ~cap)
  in
  Alcotest.(check bool) "idle log admits" true (dispatch 0);
  Alcotest.(check bool) "just below the gate admits" true (dispatch 169);
  Alcotest.(check bool) "at the gate sheds" false (dispatch 170);
  Alcotest.(check bool) "full sheds" false (dispatch cap);
  Alcotest.(check int) "log sheds counted" 2 (Serve.Admission.shed_log a);
  Alcotest.(check bool) "below the boost band" false
    (Serve.Admission.should_boost a ~used:119 ~cap);
  Alcotest.(check bool) "inside the boost band" true
    (Serve.Admission.should_boost a ~used:120 ~cap);
  Alcotest.(check bool) "boost does not count as shed" true
    (Serve.Admission.shed a = 2)

let test_admission_validation () =
  let bad cfg =
    match Serve.Admission.make cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid config accepted"
  in
  bad { Serve.Admission.queue_cap = -1; log_high_pct = 0; boost_pct = 0 };
  bad { Serve.Admission.queue_cap = 0; log_high_pct = 101; boost_pct = 0 };
  bad { Serve.Admission.queue_cap = 0; log_high_pct = 0; boost_pct = -3 }

(* ------------------------------------------------------------------ *)
(* Open-loop arrival generators                                        *)

let test_arrival_deterministic () =
  let gaps kind =
    let a = Sim.Arrival.make ~seed:5 kind in
    List.init 200 (fun _ -> Sim.Arrival.next_gap_ns a)
  in
  let mmpp =
    Sim.Arrival.Mmpp
      {
        Sim.Arrival.on_rate_per_s = 1_000_000.0;
        off_rate_per_s = 10_000.0;
        mean_on_ns = 50_000.0;
        mean_off_ns = 50_000.0;
      }
  in
  Alcotest.(check (list int)) "poisson replays"
    (gaps (Sim.Arrival.Poisson 500_000.0))
    (gaps (Sim.Arrival.Poisson 500_000.0));
  Alcotest.(check (list int)) "mmpp replays" (gaps mmpp) (gaps mmpp);
  (* a different seed draws a different stream *)
  let a = Sim.Arrival.make ~seed:6 (Sim.Arrival.Poisson 500_000.0) in
  let other = List.init 200 (fun _ -> Sim.Arrival.next_gap_ns a) in
  Alcotest.(check bool) "seed matters" false
    (other = gaps (Sim.Arrival.Poisson 500_000.0))

let test_arrival_poisson_rate () =
  let rate = 1_000_000.0 in
  let a = Sim.Arrival.make ~seed:9 (Sim.Arrival.Poisson rate) in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let g = Sim.Arrival.next_gap_ns a in
    if g < 1 then Alcotest.fail "gap below 1 ns";
    sum := !sum + g
  done;
  let mean = float_of_int !sum /. float_of_int n in
  let want = 1e9 /. rate in
  if Float.abs (mean -. want) > 0.05 *. want then
    Alcotest.failf "poisson mean gap %.1f ns, want %.1f +- 5%%" mean want

let test_arrival_mmpp_modulates () =
  (* a 100:1 rate ratio with equal sojourns: the time-average gap must
     sit strictly between the pure-on and pure-off means *)
  let on_rate = 1_000_000.0 and off_rate = 10_000.0 in
  let a =
    Sim.Arrival.make ~seed:4
      (Sim.Arrival.Mmpp
         {
           Sim.Arrival.on_rate_per_s = on_rate;
           off_rate_per_s = off_rate;
           mean_on_ns = 200_000.0;
           mean_off_ns = 200_000.0;
         })
  in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Sim.Arrival.next_gap_ns a
  done;
  let mean = float_of_int !sum /. float_of_int n in
  let on_gap = 1e9 /. on_rate and off_gap = 1e9 /. off_rate in
  if mean <= on_gap *. 1.2 || mean >= off_gap *. 0.8 then
    Alcotest.failf "mmpp mean gap %.1f not between %.1f and %.1f" mean on_gap
      off_gap

let test_arrival_validation () =
  (match Sim.Arrival.make ~seed:1 (Sim.Arrival.Poisson 0.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero-rate poisson accepted");
  match
    Sim.Arrival.make ~seed:1
      (Sim.Arrival.Mmpp
         {
           Sim.Arrival.on_rate_per_s = 1000.0;
           off_rate_per_s = -1.0;
           mean_on_ns = 10.0;
           mean_off_ns = 10.0;
         })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative-rate mmpp accepted"

(* ------------------------------------------------------------------ *)
(* End-to-end serving smoke                                            *)

let smoke_cfg =
  {
    Serve.default_config with
    tenants = 2;
    workers = 2;
    users = 1_000;
    duration_ns = 300_000;
    arrival = Sim.Arrival.Poisson 150_000.0;
    log_cap_words = 2048;
    seed = 11;
  }

let run_smoke cfg =
  with_tmpdir (fun dir -> Serve.run ~dir cfg)

let test_serve_accounting_identity () =
  let st = run_smoke smoke_cfg in
  Alcotest.(check bool) "requests arrived" true (st.Serve.offered > 0);
  Alcotest.(check bool) "requests completed" true (st.Serve.completed > 0);
  (* every offered request is exactly one of: completed, shed at the
     queue, shed at dispatch — nothing is lost or double-counted *)
  Alcotest.(check int) "offered = completed + shed" st.Serve.offered
    (st.Serve.completed + st.Serve.shed_queue + st.Serve.shed_log);
  Alcotest.(check int) "per-tenant completions add up" st.Serve.completed
    (Array.fold_left ( + ) 0 st.Serve.tenant_completed);
  Alcotest.(check bool) "window covers the arrival horizon" true
    (st.Serve.window_ns >= smoke_cfg.Serve.duration_ns)

let test_serve_legacy_sheds_nothing () =
  let st =
    run_smoke { smoke_cfg with Serve.admission = Serve.Admission.legacy }
  in
  Alcotest.(check int) "no queue sheds" 0 st.Serve.shed_queue;
  Alcotest.(check int) "no log sheds" 0 st.Serve.shed_log;
  Alcotest.(check int) "legacy completes everything" st.Serve.offered
    st.Serve.completed

let test_serve_deterministic () =
  let a = run_smoke smoke_cfg in
  let b = run_smoke smoke_cfg in
  Alcotest.(check int) "offered" a.Serve.offered b.Serve.offered;
  Alcotest.(check int) "completed" a.Serve.completed b.Serve.completed;
  Alcotest.(check int) "slo_ok" a.Serve.slo_ok b.Serve.slo_ok;
  Alcotest.(check int) "shed_queue" a.Serve.shed_queue b.Serve.shed_queue;
  Alcotest.(check int) "shed_log" a.Serve.shed_log b.Serve.shed_log;
  Alcotest.(check int) "window" a.Serve.window_ns b.Serve.window_ns;
  Alcotest.(check (float 0.0)) "p999" a.Serve.p999_us b.Serve.p999_us

let () =
  Alcotest.run "serve"
    [
      ( "log-full wake",
        [
          Alcotest.test_case "stall wakes parked drainer" `Quick
            test_stall_wakes_parked_drainer;
          Alcotest.test_case "stall bounded without drainer" `Quick
            test_stall_bounded_without_drainer;
        ] );
      ( "admission",
        [
          Alcotest.test_case "legacy admits everything" `Quick
            test_admission_legacy_admits_everything;
          Alcotest.test_case "queue cap" `Quick test_admission_queue_cap;
          Alcotest.test_case "log gate and boost band" `Quick
            test_admission_log_gate_and_boost;
          Alcotest.test_case "validation" `Quick test_admission_validation;
        ] );
      ( "arrival",
        [
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
          Alcotest.test_case "poisson rate" `Quick test_arrival_poisson_rate;
          Alcotest.test_case "mmpp modulates" `Quick
            test_arrival_mmpp_modulates;
          Alcotest.test_case "validation" `Quick test_arrival_validation;
        ] );
      ( "serving",
        [
          Alcotest.test_case "accounting identity" `Quick
            test_serve_accounting_identity;
          Alcotest.test_case "legacy sheds nothing" `Quick
            test_serve_legacy_sheds_nothing;
          Alcotest.test_case "deterministic" `Quick test_serve_deterministic;
        ] );
    ]
