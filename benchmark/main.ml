(* The repository benchmark: five workloads, end-to-end metrics from
   untraced runs, per-layer metrics from a traced run, output checks
   on every run.  See README.md.

   One workload (the command BENCHMARK.json names):
     main.exe --workload W --seed N --seconds S --trace 0|1
   prints "W metric value unit (n=samples)" lines and, last, one JSON
   object {"correct", "attempted", "failed", "metrics"}.

   Every workload, each in a fresh child process, one after another:
     main.exe [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
   exits non-zero if any output check fails; --json appends one record
   per workload run, the input of --compare.

   Two sets of runs against BENCHMARK.json's bounds:
     main.exe --compare A.json B.json *)

let workloads =
  [ "serve_steady"; "serve_overload"; "commit_disjoint"; "commit_contended";
    "explore" ]

(* Every per-layer metric a traced run of a serve or commit workload
   reports.  A layer the workload does not reach from outside reads 0:
   [Serve.run] is opaque, so serving runs report its counters and no
   closure-level figures, and the commit runs have no serving front end. *)
let per_layer =
  [
    ("scm.fences_per_op", "count"); ("scm.flushes_per_op", "count");
    ("scm.dev_writes_per_op", "count");
    ("sim.delays_per_op", "count"); ("sim.sched_host_ns_per_op", "ns");
    ("sim.event_host_ns", "ns"); ("sim.run_host_s", "s");
    ("mtm.access_sim_ns", "sim_ns"); ("mtm.access_host_ns", "ns");
    ("mtm.commit_sim_ns", "sim_ns"); ("mtm.commit_host_ns", "ns");
    ("mtm.attempts_per_op", "count"); ("mtm.aborts_per_op", "count");
    ("mtm.backoff_sim_ns_per_op", "sim_ns"); ("mtm.cm_waits_per_op", "count");
    ("mtm.false_conflicts_per_abort", "count");
    ("mtm.minor_words_per_op", "words"); ("mtm.probe_commit_host_ns", "ns");
    ("pmlog.appends_per_op", "count"); ("pmlog.group_size", "count");
    ("pmlog.drain_sweeps_per_op", "count");
    ("pmlog.drain_wakes_per_op", "count");
    ("pmlog.drain_busy_frac", "fraction");
    ("pmlog.drain_host_ns_per_op", "ns"); ("pmlog.stalls_per_op", "count");
    ("apps.put_host_ns", "ns"); ("apps.get_host_ns", "ns");
    ("apps.put_sim_ns", "sim_ns"); ("apps.get_sim_ns", "sim_ns");
    ("serve.shed_queue_frac", "fraction"); ("serve.shed_log_frac", "fraction");
    ("serve.max_queue_depth", "count"); ("serve.tenant_p99_max_us", "sim_us");
    ("serve.contention_per_req", "count");
    ("serve.drain_boosts_per_req", "count"); ("serve.drain_tail_us", "sim_us");
    ("trace.overhead_frac", "fraction");
  ]

let fill_layers measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Meas.name = name) measured with
      | Some m ->
          assert (m.Meas.unit_ = unit_);
          m
      | None -> Meas.metric name unit_ ~n:0 0.0)
    per_layer

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  trace_dir : string;
}

(* Scratch space for instance directories, one subdirectory per process. *)
let work_dir = Filename.concat "_bench" "work"

let layers_file ctx w = Filename.concat ctx.trace_dir (w ^ ".layers.json")

let write_layers ctx (o : Meas.outcome) =
  Meas.mkdir_p ctx.trace_dir;
  let json =
    Json.Obj
      (List.map
         (fun m ->
           ( m.Meas.name,
             Json.Obj
               [
                 ("value", Json.Num m.Meas.value);
                 ("unit", Json.Str m.Meas.unit_);
                 ("n", Json.Num (float_of_int m.Meas.n));
               ] ))
         o.Meas.metrics)
  in
  Out_channel.with_open_text (layers_file ctx o.Meas.workload) (fun oc ->
      output_string oc (Json.to_string json ^ "\n"))

let traced_outcome ctx w ~dir =
  let probes = Probes.run ~dir:(Filename.concat dir "probe") ~quick:ctx.quick in
  let run_dir = Filename.concat dir "run" in
  let checks, measured, attempted =
    match w with
    | "serve_steady" | "serve_overload" ->
        let cfg =
          Serve_wl.config ~overload:(w = "serve_overload") ~quick:ctx.quick
            ~seed:ctx.seed
        in
        let st, cpu, layers = Serve_wl.traced ~dir:run_dir cfg in
        (* Serve.run's host time against the apps probes times the
           request mix it served. *)
        let gets = st.Serve.completed * cfg.Serve.get_pct / 100 in
        let puts = st.Serve.completed - gets in
        let predicted =
          (float_of_int puts *. probes.Probes.put_host_ns)
          +. (float_of_int gets *. probes.Probes.get_host_ns)
        in
        Printf.printf
          "reconcile %s probes: %d puts x %.0f ns + %d gets x %.0f ns = %.4f s \
           vs Serve.run %.4f s, residual %.4f s (%.1f%%)\n"
          w puts probes.Probes.put_host_ns gets probes.Probes.get_host_ns
          (predicted /. 1e9) cpu
          (cpu -. (predicted /. 1e9))
          (100.0 *. (cpu -. (predicted /. 1e9)) /. cpu);
        (* nothing inside Serve.run is traced, so tracing costs nothing *)
        ( [ ("offered_eq_completed_plus_shed",
             st.Serve.offered
             = st.Serve.completed + st.Serve.shed_queue + st.Serve.shed_log) ],
          layers @ [ Meas.metric "trace.overhead_frac" "fraction" ~n:1 0.0 ],
          st.Serve.offered )
    | _ ->
        let s =
          Commit_wl.shape ~quick:ctx.quick
            ~contended:(w = "commit_contended")
        in
        Meas.mkdir_p ctx.trace_dir;
        let checks, layers =
          Commit_wl.traced ~name:w ~dir:run_dir ~seed:ctx.seed
            ~trace_file:(Filename.concat ctx.trace_dir (w ^ ".trace.json"))
            ~probe_commit_ns:probes.Probes.commit_host_ns
            ~probe_event_ns:probes.Probes.event_host_ns s
        in
        (checks, layers, s.Commit_wl.fibers * s.Commit_wl.txns)
  in
  {
    Meas.workload = w;
    checks;
    attempted;
    failed = 0;
    metrics = fill_layers (measured @ Probes.metrics ~quick:ctx.quick probes);
    info = [];
  }

let run_workload ctx w =
  let dir = Filename.concat work_dir (string_of_int (Unix.getpid ())) in
  let run_dir = Filename.concat dir "run" in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Meas.rm_rf dir)
      (fun () ->
        match (w, ctx.trace) with
        | "explore", false ->
            Explore_wl.untraced ~dir:run_dir ~quick:ctx.quick ~seed:ctx.seed
        | "explore", true ->
            Explore_wl.traced ~dir:run_dir ~quick:ctx.quick ~seed:ctx.seed
        | ("serve_steady" | "serve_overload"), false ->
            Serve_wl.untraced ~name:w ~dir:run_dir ~seconds:ctx.seconds
              (Serve_wl.config ~overload:(w = "serve_overload")
                 ~quick:ctx.quick ~seed:ctx.seed)
        | ("commit_disjoint" | "commit_contended"), false ->
            Commit_wl.untraced ~name:w ~dir:run_dir ~seed:ctx.seed
              ~seconds:ctx.seconds
              (Commit_wl.shape ~quick:ctx.quick
                 ~contended:(w = "commit_contended"))
        | _, true -> traced_outcome ctx w ~dir
        | _ -> invalid_arg w)
  in
  if ctx.trace then write_layers ctx outcome;
  Meas.print_outcome outcome;
  if Meas.correct outcome then 0 else 1

(* ------------------------------------------------------------------ *)
(* Every workload in a child process                                   *)

(* Run one workload as a child, echoing its report; answer its exit
   status, its JSON result line and its failed checks. *)
let run_child args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let result = ref None in
  let failed = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 && line.[0] = '{' then result := Some line
       else begin
         print_endline line;
         if String.ends_with ~suffix:" FAILED" line then
           failed := line :: !failed
       end
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, !result, List.rev !failed)

let spec_metrics spec key =
  List.filter_map
    (fun m ->
      let field k = Json.to_str (Json.member k m) in
      match (field "name", field "unit") with
      | Some n, Some u -> Some (n, u)
      | _ -> None)
    (Json.to_list (Json.member key spec))

(* Every metric BENCHMARK.json names for a workload it lists must be in
   that workload's result, with the same unit. *)
let spec_problems spec ~trace w result =
  let listed =
    List.exists
      (fun x -> Json.to_str (Json.member "name" x) = Some w)
      (Json.to_list (Json.member "workloads" spec))
  in
  if not listed then []
  else
    let metrics = Json.member "metrics" result in
    List.filter_map
      (fun (name, unit_) ->
        match Json.member name (Option.value metrics ~default:Json.Null) with
        | Some m when Json.to_str (Json.member "unit" m) = Some unit_
                      && Json.to_num (Json.member "value" m) <> None ->
            None
        | _ -> Some (Printf.sprintf "%s: %s (%s) missing" w name unit_))
      (spec_metrics spec (if trace then "per_layer" else "end_to_end"))

let run_all ctx ~json ~spec_file =
  let spec =
    if Sys.file_exists spec_file then Some (Json.of_file spec_file) else None
  in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let append_record f w r =
    let fields = match r with Json.Obj kvs -> kvs | _ -> [] in
    let record =
      Json.Obj
        ([
           ("workload", Json.Str w);
           ("seed", Json.Num (float_of_int ctx.seed));
           ("trace", Json.Bool ctx.trace);
         ]
        @ fields)
    in
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 f
      (fun oc -> output_string oc (Json.to_string record ^ "\n"))
  in
  List.iter
    (fun w ->
      let args =
        [
          "--workload"; w; "--seed"; string_of_int ctx.seed; "--seconds";
          Printf.sprintf "%g" ctx.seconds; "--trace";
          (if ctx.trace then "1" else "0"); "--trace-dir"; ctx.trace_dir;
        ]
        @ if ctx.quick then [ "--quick" ] else []
      in
      match run_child args with
      | status, Some line, failed_checks ->
          let r = Json.parse line in
          List.iter fail failed_checks;
          if status <> Unix.WEXITED 0
             || Json.member "correct" r <> Some (Json.Bool true)
          then fail (w ^ ": output check failed");
          Option.iter
            (fun spec ->
              List.iter fail (spec_problems spec ~trace:ctx.trace w r))
            spec;
          Option.iter (fun f -> append_record f w r) json
      | _, None, _ -> fail (w ^ ": no result"))
    workloads;
  if ctx.trace then begin
    let merged =
      List.filter_map
        (fun w ->
          let f = layers_file ctx w in
          if Sys.file_exists f then Some (w, Json.of_file f) else None)
        workloads
    in
    Out_channel.with_open_text (Filename.concat ctx.trace_dir "layers.json")
      (fun oc -> output_string oc (Json.to_string (Json.Obj merged) ^ "\n"))
  end;
  match List.rev !failures with
  | [] ->
      Printf.printf "benchmark: %d workloads, every output check passed%s\n"
        (List.length workloads)
        (if spec = None then ""
         else ", every metric in " ^ spec_file ^ " reported");
      0
  | fs ->
      List.iter (fun f -> Printf.eprintf "benchmark FAILED: %s\n" f) fs;
      1

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)

let read_records file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.parse

(* For each workload x metric of the untraced records: each side's
   median and quartiles, and a verdict against the bound.  Worse means
   the median moved the wrong way by more than the bound; unresolved
   means a side's own spread is wider than the bound (unless every run
   of B beats every run of A); better means B beats A by more than A's
   own spread. *)
let compare_runs ~spec_file a b =
  let spec = Json.of_file spec_file in
  let bounds =
    List.filter_map
      (fun m ->
        match Json.to_str (Json.member "name" m) with
        | Some n ->
            Some
              ( n,
                ( Json.to_str (Json.member "better" m) = Some "higher",
                  Json.to_num (Json.member "bound" m) ) )
        | None -> None)
      (Json.to_list (Json.member "end_to_end" spec)
      @ Json.to_list (Json.member "per_layer" spec))
  in
  let untraced file =
    List.filter
      (fun r -> Json.member "trace" r <> Some (Json.Bool true))
      (read_records file)
  in
  let ra = untraced a and rb = untraced b in
  let values recs w name =
    List.filter_map
      (fun r ->
        if Json.to_str (Json.member "workload" r) = Some w then
          Option.bind (Json.member "metrics" r) (fun ms ->
              Json.to_num
                (Option.bind (Json.member name ms) (Json.member "value")))
        else None)
      recs
  in
  let keys =
    List.sort_uniq compare
      (List.concat_map
         (fun r ->
           match
             (Json.to_str (Json.member "workload" r), Json.member "metrics" r)
           with
           | Some w, Some (Json.Obj ms) -> List.map (fun (k, _) -> (w, k)) ms
           | _ -> [])
         ra)
  in
  Printf.printf "%-18s %-30s %-32s %-32s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  let side m q1 q3 = Printf.sprintf "%.5g [%.5g, %.5g]" m q1 q3 in
  List.iter
    (fun (w, name) ->
      let va = values ra w name and vb = values rb w name in
      if va <> [] && vb <> [] then begin
        let qa1, ma, qa3 = Meas.quartiles va in
        let qb1, mb, qb3 = Meas.quartiles vb in
        let higher, bound =
          Option.value (List.assoc_opt name bounds) ~default:(false, None)
        in
        (* the share by which B is worse than A; negative = better *)
        let worse = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
        let spread_a = (qa3 -. qa1) /. Float.abs ma in
        let spread_b = (qb3 -. qb1) /. Float.abs mb in
        let b_beats_all =
          List.for_all
            (fun x ->
              List.for_all (fun y -> if higher then x > y else x < y) va)
            vb
        in
        let verdict =
          match bound with
          | None -> "-"
          | Some _ when ma = 0.0 -> "-"
          | Some bd ->
              if b_beats_all && worse < 0.0 then "better"
              else if Float.max spread_a spread_b > bd then "unresolved"
              else if worse > bd then "worse"
              else if -.worse > spread_a then "better"
              else "within bound"
        in
        Printf.printf "%-18s %-30s %-32s %-32s %+7.2f%%  %s\n" w name
          (side ma qa1 qa3) (side mb qb1 qb3)
          (100.0 *. (mb -. ma) /. Float.abs ma)
          verdict
      end)
    keys;
  0

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None in
  let seed = ref Explore_wl.default_seed in
  let seconds = ref 0.0 in
  let trace = ref false in
  let quick = ref false in
  let trace_dir = ref (Filename.concat "_bench" "trace") in
  let json = ref None in
  let spec_file = ref "BENCHMARK.json" in
  let compare_files = ref [] in
  let specs =
    [
      ( "--workload",
        Arg.Symbol (workloads, fun w -> workload := Some w),
        " Run one workload in this process" );
      ("--seed", Arg.Set_int seed, "N Input seed (default 42)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S Repeat each measurement until S seconds are spent (default 0: \
         once)" );
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1 1 = the traced run: per-layer metrics instead of end-to-end" );
      ( "--trace-dir",
        Arg.Set_string trace_dir,
        "DIR Where the traced run writes" );
      ("--quick", Arg.Set quick, " Toy sizes (the smoke test)");
      ( "--json",
        Arg.String (fun f -> json := Some f),
        "FILE Append run records" );
      ( "--spec",
        Arg.Set_string spec_file,
        "FILE BENCHMARK.json to check against" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun a -> compare_files := [ a ]);
            Arg.String (fun b -> compare_files := !compare_files @ [ b ]);
          ],
        "A.json B.json Compare two sets of run records" );
    ]
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] ...";
  let ctx =
    {
      seed = !seed;
      seconds = !seconds;
      trace = !trace;
      quick = !quick;
      trace_dir = !trace_dir;
    }
  in
  exit
    (match (!compare_files, !workload) with
    | [ a; b ], _ -> compare_runs ~spec_file:!spec_file a b
    | _, Some w -> run_workload ctx w
    | _, None -> run_all ctx ~json:!json ~spec_file:!spec_file)
