(* Tests for the discrete-event simulator: ordering, mutexes, condition
   variables, determinism and deadlock detection. *)

let test_delay_ordering () =
  let sim = Sim.create () in
  let trace = ref [] in
  let note tag = trace := (tag, Sim.now sim) :: !trace in
  Sim.spawn sim (fun () ->
      Sim.delay sim 100;
      note "a";
      Sim.delay sim 200;
      note "a2");
  Sim.spawn sim (fun () ->
      Sim.delay sim 150;
      note "b");
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "interleaved by time"
    [ ("a", 100); ("b", 150); ("a2", 300) ]
    (List.rev !trace)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.spawn sim (fun () ->
        Sim.delay sim 10;
        order := i :: !order)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.delay sim 100;
      incr fired;
      Sim.delay sim 100;
      incr fired);
  Sim.run ~until:150 sim;
  Alcotest.(check int) "only first event" 1 !fired;
  Alcotest.(check int) "clock clamped" 150 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "rest completes" 2 !fired;
  Alcotest.(check int) "final clock" 200 (Sim.now sim)

let test_mutex_serializes () =
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  let in_cs = ref 0 and max_in_cs = ref 0 and done_count = ref 0 in
  for _ = 1 to 4 do
    Sim.spawn sim (fun () ->
        Sim.Mutex_r.lock m;
        incr in_cs;
        max_in_cs := max !max_in_cs !in_cs;
        Sim.delay sim 50;
        decr in_cs;
        Sim.Mutex_r.unlock m;
        incr done_count)
  done;
  Sim.run sim;
  Alcotest.(check int) "mutual exclusion" 1 !max_in_cs;
  Alcotest.(check int) "all finished" 4 !done_count;
  Alcotest.(check int) "serialized time" 200 (Sim.now sim);
  Alcotest.(check int) "three waited" 3 (Sim.Mutex_r.contentions m)

let test_mutex_fifo_handoff () =
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.delay sim i;  (* arrive in order 1, 2, 3 *)
        Sim.Mutex_r.lock m;
        order := i :: !order;
        Sim.delay sim 100;
        Sim.Mutex_r.unlock m)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO grant order" [ 1; 2; 3 ]
    (List.rev !order)

let test_try_lock () =
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  let results = ref [] in
  Sim.spawn sim (fun () ->
      Alcotest.(check bool) "first try succeeds" true (Sim.Mutex_r.try_lock m);
      Sim.delay sim 100;
      Sim.Mutex_r.unlock m);
  Sim.spawn sim (fun () ->
      Sim.delay sim 50;
      results := Sim.Mutex_r.try_lock m :: !results;
      Sim.delay sim 100;
      results := Sim.Mutex_r.try_lock m :: !results;
      Sim.Mutex_r.unlock m);
  Sim.run sim;
  Alcotest.(check (list bool)) "busy then free" [ false; true ]
    (List.rev !results)

let test_cond_group_commit_pattern () =
  (* The group-commit shape used by the Berkeley DB baseline: followers
     wait on a condition; the leader flushes once and broadcasts. *)
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  let c = Sim.Cond_r.create sim in
  let flushed = ref false and leader_flushes = ref 0 in
  let commits = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.delay sim i;
        Sim.Mutex_r.lock m;
        if i = 1 then begin
          (* leader: simulate a long flush, then release the group *)
          Sim.delay sim 1000;
          incr leader_flushes;
          flushed := true;
          Sim.Cond_r.broadcast c
        end
        else
          while not !flushed do
            Sim.Cond_r.wait c m
          done;
        commits := (i, Sim.now sim) :: !commits;
        Sim.Mutex_r.unlock m)
  done;
  Sim.run sim;
  Alcotest.(check int) "one flush for the group" 1 !leader_flushes;
  List.iter
    (fun (i, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "thread %d commits after the flush" i)
        true (t >= 1001))
    !commits;
  Alcotest.(check int) "all committed" 3 (List.length !commits)

let test_deadlock_detection () =
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  Sim.spawn sim (fun () ->
      Sim.Mutex_r.lock m;
      Sim.Mutex_r.lock m (* self-deadlock *));
  Alcotest.check_raises "deadlock raises"
    (Sim.Deadlock "1 process(es) suspended with no events") (fun () ->
      Sim.run sim)

let test_spawn_from_process () =
  let sim = Sim.create () in
  let child_ran = ref false in
  Sim.spawn sim (fun () ->
      Sim.delay sim 10;
      Sim.spawn sim (fun () ->
          Sim.delay sim 5;
          child_ran := true));
  Sim.run sim;
  Alcotest.(check bool) "child ran" true !child_ran;
  Alcotest.(check int) "time includes child" 15 (Sim.now sim);
  Alcotest.(check int) "two processes" 2 (Sim.processes_run sim)

let test_determinism () =
  let run () =
    let sim = Sim.create () in
    let m = Sim.Mutex_r.create sim in
    let trace = Buffer.create 64 in
    for i = 1 to 5 do
      Sim.spawn sim (fun () ->
          Sim.delay sim (i * 7 mod 3);
          Sim.Mutex_r.with_lock m (fun () ->
              Sim.delay sim i;
              Buffer.add_string trace (Printf.sprintf "%d@%d;" i (Sim.now sim))))
    done;
    Sim.run sim;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Schedule policies, trace save/load, replay divergence *)

(* Six processes all due at the same instant: the policy owns the
   order. *)
let order_under schedule =
  let sim = Sim.create ~schedule () in
  let order = ref [] in
  for i = 1 to 6 do
    Sim.spawn sim (fun () ->
        Sim.delay sim 10;
        order := i :: !order)
  done;
  Sim.run sim;
  List.rev !order

let test_fifo_schedule_identical () =
  Alcotest.(check (list int))
    "explicit fifo = historical order" [ 1; 2; 3; 4; 5; 6 ]
    (order_under (Sim.Schedule.fifo ()))

let check_policy_permutes policy =
  let mk seed = Sim.Schedule.make ~seed policy in
  let o1 = order_under (mk 1) in
  Alcotest.(check (list int)) "same seed reproduces" o1 (order_under (mk 1));
  Alcotest.(check (list int))
    "a permutation: contents unchanged" [ 1; 2; 3; 4; 5; 6 ]
    (List.sort compare o1);
  let some_differ =
    List.exists (fun s -> order_under (mk s) <> o1) [ 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check bool) "seeds disagree on the order" true some_differ

let test_shuffle_permutes () =
  check_policy_permutes Sim.Schedule.Seeded_shuffle

let test_priority_permutes () = check_policy_permutes Sim.Schedule.Priority

let load_ok path =
  match Sim.Schedule.load path with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* A workload whose control flow depends on schedule-routed rng draws:
   replay must reproduce both the event order and the draws. *)
let draw_workload schedule =
  let sim = Sim.create ~schedule () in
  let trace = Buffer.create 64 in
  for i = 1 to 4 do
    Sim.spawn sim (fun () ->
        Sim.delay sim 10;
        let d = Sim.Schedule.draw schedule ~bound:50 in
        Buffer.add_string trace
          (Printf.sprintf "%d:%d@%d;" i d (Sim.now sim));
        Sim.delay sim (10 + d);
        Buffer.add_string trace (Printf.sprintf "%d@%d;" i (Sim.now sim)))
  done;
  Sim.run sim;
  Buffer.contents trace

let test_schedule_replay_roundtrip () =
  let rec_sched = Sim.Schedule.make ~seed:9 Sim.Schedule.Seeded_shuffle in
  let recorded = draw_workload rec_sched in
  Sim.Schedule.set_meta rec_sched "shape" "test";
  let path = Filename.temp_file "sched" ".trace" in
  Sim.Schedule.save rec_sched path;
  let loaded = load_ok path in
  Sys.remove path;
  Alcotest.(check bool) "loaded schedule replays" true
    (Sim.Schedule.is_replay loaded);
  Alcotest.(check (option string))
    "meta survives the round trip" (Some "test")
    (Sim.Schedule.meta loaded "shape");
  Alcotest.(check string) "bit-exact replay" recorded (draw_workload loaded);
  Alcotest.(check int) "nothing left over" 0
    (Sim.Schedule.replay_leftover loaded);
  Alcotest.(check int) "nothing invented" 0 (Sim.Schedule.replay_extra loaded)

let test_replay_outliving_trace_falls_back () =
  (* Replay a run that makes more decisions than the recording (the
     regression-trace-against-fixed-code situation): the schedule must
     serve fresh draws past the end of the stream, not die, and count
     them. *)
  let run schedule rounds =
    let sim = Sim.create ~schedule () in
    for _ = 1 to 3 do
      Sim.spawn sim (fun () ->
          for _ = 1 to rounds do
            Sim.delay sim 10;
            ignore (Sim.Schedule.draw schedule ~bound:8)
          done)
    done;
    Sim.run sim
  in
  let rec_sched = Sim.Schedule.make ~seed:3 Sim.Schedule.Seeded_shuffle in
  run rec_sched 2;
  let path = Filename.temp_file "sched" ".trace" in
  Sim.Schedule.save rec_sched path;
  let loaded = load_ok path in
  Sys.remove path;
  run loaded 4;
  Alcotest.(check int) "recorded stream fully consumed" 0
    (Sim.Schedule.replay_leftover loaded);
  Alcotest.(check bool) "fresh decisions counted" true
    (Sim.Schedule.replay_extra loaded > 0)

let test_draw_bound_mismatch_falls_back () =
  let rec_sched = Sim.Schedule.make ~seed:5 Sim.Schedule.Seeded_shuffle in
  for _ = 1 to 4 do
    ignore (Sim.Schedule.draw rec_sched ~bound:8)
  done;
  let path = Filename.temp_file "sched" ".trace" in
  Sim.Schedule.save rec_sched path;
  let loaded = load_ok path in
  Sys.remove path;
  ignore (Sim.Schedule.draw loaded ~bound:8);
  Alcotest.(check int) "matching draw consumed" 0
    (Sim.Schedule.replay_extra loaded);
  let v = Sim.Schedule.draw loaded ~bound:9 in
  Alcotest.(check bool) "mismatched draw in caller's range" true
    (v >= 0 && v < 9);
  Alcotest.(check int) "mismatch counted" 1 (Sim.Schedule.replay_extra loaded);
  ignore (Sim.Schedule.draw loaded ~bound:8);
  Alcotest.(check int) "stream stays abandoned after a mismatch" 2
    (Sim.Schedule.replay_extra loaded);
  Alcotest.(check bool) "abandoned draws reported as leftover" true
    (Sim.Schedule.replay_leftover loaded > 0)

(* The service wake-token protocol cannot lose a wakeup.  Audit of the
   three windows: (1) a wake during the daemon's work phase finds it
   unparked and leaves a token ([wakes_pending]) the loop consumes
   before parking; (2) the stretch between the last [work () = false]
   check and the park is yield-free under the DES, so no wake can land
   "between" them; (3) [stop] wakes the daemon and the loop keeps
   running work units until dry before honoring [stopping].  This
   deterministic two-fiber program pins all three, including a wake at
   the same simulated instant as the park decision. *)
let test_service_no_lost_wakeup () =
  let sim = Sim.create () in
  let pending = ref 0 in
  let processed = ref 0 in
  let svc =
    Sim.Service.spawn sim ~work:(fun () ->
        if !pending > 0 then begin
          decr pending;
          incr processed;
          true
        end
        else false)
  in
  Sim.spawn sim (fun () ->
      (* t=0: the daemon, spawned first, has already run work() = false
         and parked within this same instant — a wake racing the park
         decision at t=0 must not be lost *)
      pending := 1;
      Sim.Service.wake svc;
      Sim.delay sim 50;
      (* parked again; first wake unparks it, the second lands before
         the daemon runs and must persist as a token *)
      pending := 2;
      Sim.Service.wake svc;
      Sim.Service.wake svc;
      Sim.delay sim 50;
      (* leftover work enqueued with no wake at all: stop must drain
         it before the daemon exits *)
      incr pending;
      Sim.Service.stop svc);
  Sim.run sim;
  Alcotest.(check int) "no queued item stranded" 0 !pending;
  Alcotest.(check int) "every item processed exactly once" 4 !processed;
  Alcotest.(check bool) "daemon exited" true (Sim.Service.stopped svc)

(* [park]: a notified waiter resumes at the notify, and its cancelled
   timeout leaves no trace — the clock ends at the last live event, not
   at the dead timer's instant. *)
let test_park_notified_before_timeout () =
  let sim = Sim.create () in
  let waiter = ref None in
  let woke_at = ref (-1) in
  Sim.spawn sim (fun () ->
      Sim.park ~timeout:1_000 (fun resume -> waiter := Some resume);
      woke_at := Sim.now sim);
  Sim.spawn sim (fun () ->
      Sim.delay sim 30;
      Option.iter (fun resume -> resume ()) !waiter);
  Sim.run sim;
  Alcotest.(check int) "resumed at the notify" 30 !woke_at;
  Alcotest.(check int) "clock stops at the last live event" 30 (Sim.now sim)

let test_park_times_out () =
  let sim = Sim.create () in
  let woke_at = ref (-1) in
  Sim.spawn sim (fun () ->
      Sim.delay sim 5;
      Sim.park ~timeout:200 (fun _ -> ());
      woke_at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "resumed at its timeout" 205 !woke_at

(* Only the first resume counts: a waiter already woken (by a notify or
   by its timeout) ignores later ones, so wait lists may keep stale
   entries. *)
let test_park_second_resume_ignored () =
  let sim = Sim.create () in
  let waiter = ref None in
  let wakes = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.park (fun resume -> waiter := Some resume);
      incr wakes;
      Sim.delay sim 100;
      incr wakes);
  Sim.spawn sim (fun () ->
      Sim.delay sim 10;
      let resume = Option.get !waiter in
      resume ();
      resume ();
      Sim.delay sim 10;
      resume ());
  Sim.run sim;
  Alcotest.(check int) "woken once, ran to the end" 2 !wakes;
  Alcotest.(check int) "no extra wake-ups shifted the clock" 110 (Sim.now sim)

let test_park_untimed_deadlock () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.park (fun _ -> ()));
  Alcotest.check_raises "untimed park with nothing pending"
    (Sim.Deadlock "1 process(es) suspended with no events") (fun () ->
      Sim.run sim)

(* A notified timed park leaves a cancelled timer in the queue: it must
   not count as a pending event when everything else is stuck. *)
let test_park_cancelled_timer_not_pending () =
  let sim = Sim.create () in
  let waiter = ref None in
  Sim.spawn sim (fun () ->
      Sim.park ~timeout:1_000 (fun resume -> waiter := Some resume);
      Sim.park (fun _ -> ()));
  Sim.spawn sim (fun () ->
      Sim.delay sim 10;
      Option.iter (fun resume -> resume ()) !waiter);
  Alcotest.check_raises "deadlock despite the dead timer"
    (Sim.Deadlock "1 process(es) suspended with no events") (fun () ->
      Sim.run sim);
  Alcotest.(check int) "the dead timer did not advance the clock" 10
    (Sim.now sim)

let prop_delays_accumulate =
  QCheck.Test.make ~name:"sum of delays equals final clock" ~count:100
    QCheck.(list (int_bound 1000))
    (fun delays ->
      let sim = Sim.create () in
      Sim.spawn sim (fun () -> List.iter (Sim.delay sim) delays);
      Sim.run sim;
      Sim.now sim = List.fold_left ( + ) 0 delays)

let () =
  Alcotest.run "sim"
    [
      ( "scheduling",
        [
          Alcotest.test_case "delay ordering" `Quick test_delay_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "spawn from process" `Quick
            test_spawn_from_process;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "serializes" `Quick test_mutex_serializes;
          Alcotest.test_case "FIFO handoff" `Quick test_mutex_fifo_handoff;
          Alcotest.test_case "try_lock" `Quick test_try_lock;
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
        ] );
      ( "cond",
        [
          Alcotest.test_case "group commit pattern" `Quick
            test_cond_group_commit_pattern;
        ] );
      ( "service",
        [
          Alcotest.test_case "no lost wakeup" `Quick
            test_service_no_lost_wakeup;
        ] );
      ( "park",
        [
          Alcotest.test_case "notified before its timeout" `Quick
            test_park_notified_before_timeout;
          Alcotest.test_case "times out" `Quick test_park_times_out;
          Alcotest.test_case "second resume ignored" `Quick
            test_park_second_resume_ignored;
          Alcotest.test_case "untimed park deadlocks" `Quick
            test_park_untimed_deadlock;
          Alcotest.test_case "cancelled timer is not pending" `Quick
            test_park_cancelled_timer_not_pending;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "explicit fifo identical" `Quick
            test_fifo_schedule_identical;
          Alcotest.test_case "shuffle permutes deterministically" `Quick
            test_shuffle_permutes;
          Alcotest.test_case "priority permutes deterministically" `Quick
            test_priority_permutes;
          Alcotest.test_case "save/load/replay round trip" `Quick
            test_schedule_replay_roundtrip;
          Alcotest.test_case "replay outliving trace falls back" `Quick
            test_replay_outliving_trace_falls_back;
          Alcotest.test_case "draw bound mismatch falls back" `Quick
            test_draw_bound_mismatch_falls_back;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_delays_accumulate ]);
    ]
