(* The CI exploration sweeps, run as child processes one after the
   other: the exhaustive crash-point sweep (crash_explore with pmfsck
   and pmcheck on every recovered image) and the pipelined-commit
   schedule sweep (sched_explore under pmcheck and the race detector).
   At the default seed (42) both command lines are exactly the ones CI
   runs.  Host figures are the children's CPU time. *)

let default_seed = 42

let tool name =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat root (Filename.concat "bin" (name ^ ".exe"))

let crash_args ~quick ~seed ~checked ~dir =
  [ "--seed"; string_of_int seed; "--dir"; dir ]
  @ (if quick then [ "--txns"; "1"; "--second"; "1"; "--max-points"; "12" ]
     else [ "--txns"; "5"; "--second"; "3"; "--max-points"; "2000" ])
  @ if checked then [ "--fsck"; "--pmcheck" ] else []

let sched_seeds ~quick = if quick then 2 else 70

(* Schedule seeds are a window of [sched_seeds] consecutive values; seed
   42 maps to CI's window, which starts at 0. *)
let sched_args ~quick ~seed ~checked ~dir =
  [
    "--seeds"; string_of_int (sched_seeds ~quick);
    Printf.sprintf "--seed0=%d" ((seed - default_seed) * sched_seeds ~quick);
    "--policy"; "all"; "--threads"; "3"; "--txns"; "8"; "--lease"; "4";
    "--stripes"; "4"; "--group-commit"; "--pipeline"; "--cm-adaptive";
    "--dir"; dir;
  ]
  @ if checked then [ "--pmcheck"; "--race" ] else []

(* Run [exe args] with its output in [log]; answer (exit ok, child CPU
   s, output). *)
let run_tool ~log exe args =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let c0 = Meas.children_cpu_s () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let cpu = Meas.children_cpu_s () -. c0 in
  let out = In_channel.with_open_bin log In_channel.input_all in
  (status = Unix.WEXITED 0, cpu, out)

(* The values [fmt] reads from the first line of [out] it matches. *)
let scan out fmt f =
  List.find_map
    (fun line -> try Some (Scanf.sscanf line fmt f) with _ -> None)
    (String.split_on_char '\n' out)

type sweep = {
  crash_ok : bool;
  crash_cpu : float;
  explored : int;  (* crash points explored *)
  points : int;  (* of which recovered *)
  sched_ok : bool;
  sched_cpu : float;
  schedules : int;  (* schedules explored *)
  serializable : int;  (* of which conflict-serializable *)
  commits : int;
  aborts : int;
}

let sweep ~dir ~quick ~seed ~checked =
  Meas.rm_rf dir;
  Meas.mkdir_p dir;
  let crash_ok, crash_cpu, cout =
    run_tool ~log:(Filename.concat dir "crash.log") (tool "crash_explore")
      (crash_args ~quick ~seed ~checked ~dir:(Filename.concat dir "crash"))
  in
  let sched_ok, sched_cpu, sout =
    run_tool ~log:(Filename.concat dir "sched.log") (tool "sched_explore")
      (sched_args ~quick ~seed ~checked ~dir:(Filename.concat dir "sched"))
  in
  let get = Option.value ~default:0 in
  let r =
    {
      crash_ok;
      crash_cpu;
      explored = get (scan cout "exploring %d crash points" Fun.id);
      points = get (scan cout "all %d crash points recovered" Fun.id);
      sched_ok;
      sched_cpu;
      schedules = get (scan sout "explored %d schedules" Fun.id);
      serializable =
        get (scan sout "all %d schedules conflict-serializable" Fun.id);
      commits =
        get (scan sout "explored %_d schedules %_s@: %d commits" Fun.id);
      aborts =
        get
          (scan sout "explored %_d schedules %_s@: %_d commits, %d aborts"
             Fun.id);
    }
  in
  Meas.rm_rf dir;
  r

let checks ~quick ~seed r =
  let ci = seed = default_seed && not quick in
  [
    ("crash_sweep_exit_0", r.crash_ok);
    ("every_crash_point_recovered", r.points > 0 && r.points = r.explored);
    ("sched_sweep_exit_0", r.sched_ok);
    ( "every_schedule_serializable",
      r.schedules = 3 * sched_seeds ~quick && r.serializable = r.schedules );
  ]
  @
  if ci then
    [
      ( "ci_sweep_393_points_210_schedules",
        r.points = 393 && r.schedules = 210 );
    ]
  else []

(* Set-up: the crash sweep's fixed cost, counting the workload's
   persistence ops once before exploring. *)
let setup_cpu ~dir ~quick ~seed () =
  Meas.rm_rf dir;
  Meas.mkdir_p dir;
  let _, cpu, _ =
    run_tool ~log:(Filename.concat dir "count.log") (tool "crash_explore")
      (crash_args ~quick ~seed ~checked:false ~dir:(Filename.concat dir "crash")
      @ [ "--count-only" ])
  in
  Meas.rm_rf dir;
  cpu

let untraced ~dir ~quick ~seed =
  let r = sweep ~dir ~quick ~seed ~checked:true in
  let setups =
    List.init Meas.setup_samples (fun _ -> setup_cpu ~dir ~quick ~seed ())
  in
  let cpu = r.crash_cpu +. r.sched_cpu in
  let ops = r.explored + r.schedules in
  let m = Meas.metric in
  {
    Meas.workload = "explore";
    checks = checks ~quick ~seed r;
    attempted = ops;
    failed = ops - r.points - r.serializable;
    metrics =
      [
        m "sweep_s" "s" ~n:1 cpu;
        m "host_ops_per_s" "1/s" ~n:1 (float_of_int ops /. cpu);
        m "setup_s" "s" ~n:Meas.setup_samples (Meas.median setups);
        m "explore.crash_points" "count" ~n:1 (float_of_int r.points);
        m "explore.sched_schedules" "count" ~n:1 (float_of_int r.schedules);
      ];
    info = [];
  }

(* The traced run adds the same sweeps without sanitizers: checked minus
   plain is what pmcheck, pmfsck and the race detector cost. *)
let traced ~dir ~quick ~seed =
  let r = sweep ~dir ~quick ~seed ~checked:true in
  let p = sweep ~dir ~quick ~seed ~checked:false in
  let m = Meas.metric in
  {
    Meas.workload = "explore";
    checks = checks ~quick ~seed r;
    attempted = r.explored + r.schedules;
    failed = r.explored + r.schedules - r.points - r.serializable;
    metrics =
      [
        m "explore.crash_points" "count" ~n:1 (float_of_int r.points);
        m "explore.crash_s" "s" ~n:1 r.crash_cpu;
        m "explore.crash_plain_s" "s" ~n:1 p.crash_cpu;
        m "explore.sched_schedules" "count" ~n:1 (float_of_int r.schedules);
        m "explore.sched_aborts_per_commit" "count" ~n:r.commits
          (Meas.ratio r.aborts r.commits);
        m "explore.sched_s" "s" ~n:1 r.sched_cpu;
        m "explore.sched_plain_s" "s" ~n:1 p.sched_cpu;
      ];
    info = [];
  }
