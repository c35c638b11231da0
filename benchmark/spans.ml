(* The traced run's recorder.  Every span is taken from a closure the
   benchmark itself owns — the body it passes to [Txn.run], each fiber's
   [Scm.Env.view ~delay], the drainer's [Sim.Service] work closure and
   the drain-wake hook — so nothing inside lib/ is instrumented.

   Two clocks are kept apart.  Simulated spans (a transaction's
   [Txn.run], each attempt of its body, each drainer sweep) come from
   [Sim.now].  Host time comes from the monotonic clock read at every
   point where a fiber gives up or regains the host CPU: entering and
   leaving [Sim.delay], and entering and leaving the drainer's work
   closure.  The stretch between two such points is one compute
   segment, charged to the phase the fiber is in.  Whatever [Sim.run]
   spends outside every segment is the scheduler's own time.

   Aggregates cover every operation; full spans are kept only for the
   first [span_ops] operations, so memory stays bounded. *)

let ph_harness = 0
let ph_commit = 1
let ph_access = 2
let ph_drain = 3
let phase_names = [| "harness"; "commit"; "access"; "drain" |]

type clock = Sim_clock | Host_clock

type span = {
  name : string;
  clock : clock;
  tid : int;
  ts : int;
  dur : int;
  id : int;
  parent : int;
  txid : int;
}

type t = {
  sim : Sim.t;
  span_ops : int;
  seg_start : int array;  (* per fiber: host ns the open segment began *)
  phase : int array;  (* per fiber *)
  host : int array;  (* host ns per phase, all fibers *)
  op : int array;  (* per fiber: index of the running operation *)
  op_sim_start : int array;
  op_access_sim : int array;
  op_host_access : int array;
  op_host_commit : int array;
  op_host_first : int array;  (* host ns of the operation's first segment *)
  op_txid : int array;
  body_start : int array;
  mutable epoch : int;  (* host ns at [start] *)
  mutable sim_epoch : int;
  mutable delays : int;
  mutable attempts : int;
  mutable ops : int;
  mutable access_sim : int;
  mutable run_sim : int;
  mutable commit_self_min : int;  (* smallest run - access over all ops *)
  mutable sweeps : int;  (* drainer work calls that found work *)
  mutable drain_sim : int;
  mutable wakes : int;
  mutable spans : span list;
  fiber_host : int array;  (* per fiber: host ns in all its segments *)
}

let create sim ~fibers ~span_ops =
  let a () = Array.make fibers 0 in
  {
    sim;
    span_ops;
    seg_start = a ();
    phase = a ();
    host = Array.make (Array.length phase_names) 0;
    op = a ();
    op_sim_start = a ();
    op_access_sim = a ();
    op_host_access = a ();
    op_host_commit = a ();
    op_host_first = a ();
    op_txid = a ();
    body_start = a ();
    epoch = 0;
    sim_epoch = 0;
    delays = 0;
    attempts = 0;
    ops = 0;
    access_sim = 0;
    run_sim = 0;
    commit_self_min = max_int;
    sweeps = 0;
    drain_sim = 0;
    wakes = 0;
    spans = [];
    fiber_host = a ();
  }

(* Start of the measured window: everything recorded during set-up
   (binding threads) is dropped. *)
let start t =
  t.epoch <- Meas.mono_ns ();
  t.sim_epoch <- Sim.now t.sim;
  Array.fill t.host 0 (Array.length t.host) 0;
  t.delays <- 0;
  t.sweeps <- 0;
  t.drain_sim <- 0;
  t.wakes <- 0

let add_span t s = t.spans <- s :: t.spans

let seg_begin t f = t.seg_start.(f) <- Meas.mono_ns ()

let seg_end t f =
  let now = Meas.mono_ns () in
  let d = now - t.seg_start.(f) in
  let ph = t.phase.(f) in
  t.host.(ph) <- t.host.(ph) + d;
  t.fiber_host.(f) <- t.fiber_host.(f) + d;
  if ph = ph_access then t.op_host_access.(f) <- t.op_host_access.(f) + d
  else if ph = ph_commit then t.op_host_commit.(f) <- t.op_host_commit.(f) + d

let switch t f ph =
  seg_end t f;
  t.phase.(f) <- ph;
  seg_begin t f

(* The wrapped [Scm.Env.view ~delay] of fiber [f]. *)
let delay t f ns =
  seg_end t f;
  t.delays <- t.delays + 1;
  Sim.delay t.sim ns;
  seg_begin t f

let op_begin t f =
  switch t f ph_commit;
  t.op.(f) <- t.ops;
  t.ops <- t.ops + 1;
  t.op_sim_start.(f) <- Sim.now t.sim;
  t.op_access_sim.(f) <- 0;
  t.op_host_access.(f) <- 0;
  t.op_host_commit.(f) <- 0;
  t.op_host_first.(f) <- t.seg_start.(f) - t.epoch

(* Wrap the body passed to [Txn.run]: each call is one attempt. *)
let body t f (env : Scm.Env.t) body tx =
  switch t f ph_access;
  t.attempts <- t.attempts + 1;
  t.op_txid.(f) <- env.Scm.Env.cur_txid;
  t.body_start.(f) <- Sim.now t.sim;
  let finish () =
    let s = t.body_start.(f) in
    let d = Sim.now t.sim - s in
    t.op_access_sim.(f) <- t.op_access_sim.(f) + d;
    if t.op.(f) < t.span_ops then
      add_span t
        {
          name = "access";
          clock = Sim_clock;
          tid = f;
          ts = s - t.sim_epoch;
          dur = d;
          id = -1;
          parent = t.op.(f);
          txid = t.op_txid.(f);
        };
    switch t f ph_commit
  in
  match body tx with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let op_end t f =
  switch t f ph_harness;
  let run = Sim.now t.sim - t.op_sim_start.(f) in
  let access = t.op_access_sim.(f) in
  t.run_sim <- t.run_sim + run;
  t.access_sim <- t.access_sim + access;
  t.commit_self_min <- min t.commit_self_min (run - access);
  let op = t.op.(f) in
  if op < t.span_ops then begin
    let txid = t.op_txid.(f) in
    add_span t
      {
        name = "txn";
        clock = Sim_clock;
        tid = f;
        ts = t.op_sim_start.(f) - t.sim_epoch;
        dur = run;
        id = op;
        parent = -1;
        txid;
      };
    let host name dur =
      add_span t
        {
          name;
          clock = Host_clock;
          tid = f;
          ts = t.op_host_first.(f);
          dur;
          id = -1;
          parent = op;
          txid;
        }
    in
    host "commit" t.op_host_commit.(f);
    host "access" t.op_host_access.(f)
  end

(* Wrap the drainer's [Sim.Service] work closure.  The daemon fiber
   gets the host CPU when the closure is entered and gives it back when
   the closure returns (the Service loop's own yields are scheduler
   time). *)
let drain_work t d work () =
  t.phase.(d) <- ph_drain;
  seg_begin t d;
  let s = Sim.now t.sim in
  let h = t.seg_start.(d) - t.epoch in
  let h0 = t.fiber_host.(d) in
  let did = work () in
  let dur = Sim.now t.sim - s in
  t.drain_sim <- t.drain_sim + dur;
  seg_end t d;
  if did then begin
    t.sweeps <- t.sweeps + 1;
    if t.ops < t.span_ops then begin
      add_span t
        {
          name = "drain";
          clock = Sim_clock;
          tid = d;
          ts = s - t.sim_epoch;
          dur;
          id = -1;
          parent = -1;
          txid = 0;
        };
      add_span t
        {
          name = "drain";
          clock = Host_clock;
          tid = d;
          ts = h;
          dur = t.fiber_host.(d) - h0;
          id = -1;
          parent = -1;
          txid = 0;
        }
    end
  end;
  did

let wake t f tid =
  t.wakes <- t.wakes + 1;
  f tid

let host_total t = Array.fold_left ( + ) 0 t.host

(* Chrome trace-event format: simulated spans under process 1, host
   compute under process 2, one track per fiber.  Parent and txid ride
   in [args]; a transaction's spans share its txid. *)
let write_chrome t ~path ~fiber_name =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let meta pid name =
    Printf.bprintf b
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
       \"args\":{\"name\":\"%s\"}},\n"
      pid name
  in
  meta 1 "simulated time";
  meta 2 "host compute";
  let tids =
    List.sort_uniq compare (List.map (fun s -> s.tid) t.spans)
  in
  List.iter
    (fun tid ->
      List.iter
        (fun pid ->
          Printf.bprintf b
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
             \"args\":{\"name\":\"%s\"}},\n"
            pid tid (fiber_name tid))
        [ 1; 2 ])
    tids;
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Printf.bprintf b
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"txid\":%d}}"
        s.name
        (match s.clock with Sim_clock -> 1 | Host_clock -> 2)
        s.tid
        (float_of_int s.ts /. 1e3)
        (float_of_int s.dur /. 1e3)
        s.id s.parent s.txid)
    (List.rev t.spans);
  Buffer.add_string b "\n]}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)
