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
  Alcotest.(check int) "serialized time" 200 (Sim.now sim)

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
  Alcotest.(check int) "time includes child" 15 (Sim.now sim)

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

(* [current_proc] is -1 once [run] has returned, however it returned. *)
let test_current_proc_reset () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.park (fun _ -> ()));
  (match Sim.run sim with
  | exception Sim.Deadlock _ -> ()
  | () -> Alcotest.fail "expected Deadlock");
  Alcotest.(check int) "after Deadlock" (-1) (Sim.current_proc sim);
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      Sim.delay sim 5;
      failwith "process failed");
  (match Sim.run sim with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected the process's exception");
  Alcotest.(check int) "after a process raised" (-1) (Sim.current_proc sim)

(* A delay needs a process to suspend: outside one, and in a [park]
   register callback (which runs in the scheduler, not in the process),
   it raises [Effect.Unhandled] — also after a run that ended in an
   exception. *)
let test_delay_outside_process () =
  let unhandled f =
    match f () with exception Effect.Unhandled _ -> true | () -> false
  in
  let sim = Sim.create () in
  Alcotest.(check bool) "before any run" true
    (unhandled (fun () -> Sim.delay sim 1));
  let in_register = ref false in
  Sim.spawn sim (fun () ->
      Sim.park ~timeout:10 (fun _ ->
          in_register := unhandled (fun () -> Sim.delay sim 1));
      failwith "process failed");
  (match Sim.run sim with exception Failure _ -> () | () -> ());
  Alcotest.(check bool) "in a park register callback" true !in_register;
  Alcotest.(check bool) "after a run that raised" true
    (unhandled (fun () -> Sim.delay sim 1))

(* The event order, pinned.  One program queues events every way there
   is: zero, equal and distinct delays, timed parks resumed before and
   after their timeouts, mutex handoffs, service wakes and spawns from
   inside processes, run in [run ~until] slices.  The digest of its
   (process, time) log and the schedule's decision and draw counts were
   recorded with the record-heap scheduler that preceded the slot
   queue; any change to the order events run in, or to the decisions
   spent on them, moves one of the three. *)
let event_order_program schedule =
  let sim = Sim.create ~schedule () in
  let log = Buffer.create 8192 in
  let note p =
    Buffer.add_string log (Printf.sprintf "%d@%d;" p (Sim.now sim))
  in
  let m = Sim.Mutex_r.create sim in
  let parked = Queue.create () in
  let backlog = ref 0 in
  let svc =
    Sim.Service.spawn sim ~work:(fun () ->
        !backlog > 0
        && begin
             decr backlog;
             note 99;
             Sim.delay sim 3;
             true
           end)
  in
  let live = ref 0 in
  let rec worker p rounds () =
    for i = 0 to rounds - 1 do
      (match (p + i) mod 7 with
      | 0 -> Sim.delay sim 0
      | 1 -> Sim.delay sim 10
      | 2 -> Sim.delay sim (1 + Sim.Schedule.draw schedule ~bound:9)
      | 3 ->
          Sim.Mutex_r.with_lock m (fun () ->
              note p;
              Sim.delay sim 4)
      | 4 ->
          Sim.park ~timeout:(5 + (20 * (p mod 3))) (fun resume ->
              Queue.push resume parked)
      | 5 ->
          Option.iter (fun resume -> resume ()) (Queue.take_opt parked);
          Sim.delay sim 2
      | _ ->
          incr backlog;
          Sim.Service.wake svc;
          Sim.delay sim 1);
      note p;
      if i = 11 && p mod 4 = 0 then begin
        incr live;
        Sim.spawn sim (worker (20 + p) 9)
      end
    done;
    decr live;
    if !live = 0 then Sim.Service.stop svc
  in
  for p = 0 to 11 do
    incr live;
    Sim.spawn sim (worker p 24)
  done;
  (* A same-time tie: at t=7 process 51's [delay 0] lands behind process
     50's event, queued earlier for the same instant.  Under Fifo that
     event runs first, so the delay must not complete in place. *)
  let ties = ref [] in
  let tie p = ties := (p, Sim.now sim) :: !ties in
  Sim.spawn sim (fun () ->
      Sim.delay sim 7;
      tie 51;
      Sim.delay sim 0;
      tie 51);
  Sim.spawn sim (fun () ->
      Sim.delay sim 7;
      tie 50);
  List.iter (fun until -> Sim.run ~until sim) [ 15; 40; 41; 90 ];
  Sim.run sim;
  ( Digest.to_hex (Digest.string (Buffer.contents log)),
    Sim.Schedule.decisions schedule,
    Sim.Schedule.rng_draws schedule,
    List.rev !ties )

let test_event_order_pinned () =
  let check name schedule expected =
    let digest, decisions, draws, ties = event_order_program schedule in
    Alcotest.(check (triple string int int))
      (name ^ ": log digest, decisions, rng draws")
      expected (digest, decisions, draws);
    ties
  in
  Alcotest.(check (list (pair int int)))
    "fifo: the delay 0 waits behind the same-time event"
    [ (51, 7); (50, 7); (51, 7) ]
    (check "fifo" (Sim.Schedule.fifo ())
       ("f2c6bf75836307111c96c7d42613a1a1", 0, 45));
  let mk = Sim.Schedule.make ~seed:17 in
  ignore
    (check "shuffle"
       (mk Sim.Schedule.Seeded_shuffle)
       ("1b7adc14d70ed8faf1ebeeb3989cfa5c", 504, 45));
  ignore
    (check "priority" (mk Sim.Schedule.Priority)
       ("b58795b60f24e5f4b7584921e061952d", 507, 45))

(* The scheduler's allocation budget, as test_mtm holds the commit's: a
   queued event allocates its continuation and little else, and a delay
   that nothing else is due before completes in place, allocating
   nothing.  Sixteen processes in lockstep queue every event. *)
let test_event_allocation_budget () =
  let words ~procs ~delays =
    let sim = Sim.create () in
    for _ = 1 to procs do
      Sim.spawn sim (fun () ->
          for _ = 1 to delays do
            Sim.delay sim 1
          done)
    done;
    let w0 = Gc.minor_words () in
    Sim.run sim;
    Gc.minor_words () -. w0
  in
  let n = 10_000 in
  let per_event =
    (words ~procs:16 ~delays:n -. words ~procs:16 ~delays:0)
    /. float_of_int (16 * n)
  in
  if per_event > 6. then
    Alcotest.failf "a queued event allocates %.2f minor words (budget 6)"
      per_event;
  let lone = words ~procs:1 ~delays:n -. words ~procs:1 ~delays:0 in
  if lone <> 0. then
    Alcotest.failf "a lone process's %d delays allocate %.0f minor words" n
      lone

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

(* A trace file is outside input: [load] returns [Error] for each
   malformed field instead of raising or replaying it. *)
let load_text body =
  let path = Filename.temp_file "sched" ".trace" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "mnemosyne-sched-trace 1\npolicy shuffle\nseed 1\n";
      output_string oc body);
  let r = Sim.Schedule.load path in
  Sys.remove path;
  r

let check_rejects field bodies =
  (match load_text "keys 2\n5 7\ndraws 1\n8 3\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the well-formed trace: %s" e);
  List.iter
    (fun body ->
      match load_text body with
      | Ok _ -> Alcotest.failf "%s: %S loaded" field body
      | Error _ -> ())
    bodies

let test_load_rejects_key_count () =
  check_rejects "key count" [ "keys -1\ndraws 0\n"; "keys 5\n1 2\ndraws 0\n" ]

let test_load_rejects_draw_count () =
  check_rejects "draw count"
    [ "keys 0\ndraws -4\n"; "keys 0\ndraws 3\n8 1\n" ]

let test_load_rejects_draw_bound () =
  check_rejects "draw bound"
    [ "keys 0\ndraws 1\n0 0\n"; "keys 0\ndraws 1\n-3 0\n" ]

let test_load_rejects_draw_value () =
  check_rejects "draw value"
    [ "keys 0\ndraws 1\n8 8\n"; "keys 0\ndraws 1\n8 -1\n" ]

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

(* Hundreds of processes queued at once (past the queue's first growth)
   wake in (time, spawn order) order, each after its own delay. *)
let prop_wake_order =
  QCheck.Test.make ~name:"many processes wake in (time, FIFO) order"
    ~count:20
    QCheck.(list_of_size Gen.(300 -- 700) (int_bound 50))
    (fun delays ->
      let sim = Sim.create () in
      let woke = ref [] in
      List.iteri
        (fun i d ->
          Sim.spawn sim (fun () ->
              Sim.delay sim d;
              woke := (Sim.now sim, i) :: !woke))
        delays;
      Sim.run sim;
      List.rev !woke = List.sort compare (List.mapi (fun i d -> (d, i)) delays))

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
          Alcotest.test_case "current_proc reset on every exit" `Quick
            test_current_proc_reset;
          Alcotest.test_case "delay outside a process" `Quick
            test_delay_outside_process;
          Alcotest.test_case "event order pinned" `Quick
            test_event_order_pinned;
          Alcotest.test_case "event allocation budget" `Quick
            test_event_allocation_budget;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "serializes" `Quick test_mutex_serializes;
          Alcotest.test_case "FIFO handoff" `Quick test_mutex_fifo_handoff;
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
          Alcotest.test_case "load rejects a bad key count" `Quick
            test_load_rejects_key_count;
          Alcotest.test_case "load rejects a bad draw count" `Quick
            test_load_rejects_draw_count;
          Alcotest.test_case "load rejects a bad draw bound" `Quick
            test_load_rejects_draw_bound;
          Alcotest.test_case "load rejects a draw out of range" `Quick
            test_load_rejects_draw_value;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_delays_accumulate; prop_wake_order ] );
    ]
