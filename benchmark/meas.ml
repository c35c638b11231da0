(* Clocks, order statistics and the result record every workload
   returns. *)

(* Host CPU (user + sys) of this process, from getrusage. *)
let cpu_s () = Sys.time ()

(* Host CPU of waited-for child processes. *)
let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Host monotonic wall clock in ns, for segment timing inside one
   process (a call is a vDSO read and allocates nothing). *)
let mono_ns () = Int64.to_int (Monotonic_clock.now ())

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0

(* The calibration kernel: 1M rounds of register arithmetic, then 15k
   dependent read-modify-writes at pseudo-random places in a 32 MiB int
   array outside the OCaml heap.  It allocates nothing and calls no code
   of the repository, so its speed depends only on the host: the first
   half on the core's clock and whoever shares it, the second on the
   memory system.  A reference second ([ref_s]) is the host CPU time of
   [ref_runs] runs of it (about one second on the machine this
   benchmark was first measured on). *)
let ref_runs = 250.0

let kernel_table =
  let a = Bigarray.(Array1.create int c_layout (1 lsl 22)) in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    a.{i} <- i * 7919
  done;
  a

let kernel_sink = ref 0

let kernel_cpu_s () =
  let a = kernel_table in
  let mask = Bigarray.Array1.dim a - 1 in
  let t0 = cpu_s () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc lxor (!x lsr 3)
  done;
  for _ = 1 to 15_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = (!x + (!acc land 7)) land mask in
    acc := !acc + Bigarray.Array1.unsafe_get a i;
    Bigarray.Array1.unsafe_set a i (!acc land 0xffff)
  done;
  kernel_sink := !acc;
  cpu_s () -. t0

(* A timed section cut into slices.  Each cut closes a slice and runs
   the kernel once, outside the slice: a slice's cost in reference
   seconds is its CPU time over the kernel's right after it, so a
   neighbour that slows the host for a while slows both and cancels. *)
type slicer = { mutable start : float; mutable slices : (float * float) list }

let slicer () = { start = cpu_s (); slices = [] }

let cut t =
  let stop = cpu_s () in
  let k = kernel_cpu_s () in
  t.slices <- (stop -. t.start, k) :: t.slices;
  t.start <- cpu_s ()

(* The CPU s and the reference s of the slices. *)
let slice_costs t =
  List.fold_left
    (fun (cpu, refs) (c, k) ->
      (cpu +. c, refs +. (c /. (k *. ref_runs))))
    (0.0, 0.0) t.slices

let kernel_total t = List.fold_left (fun acc (_, k) -> acc +. k) 0.0 t.slices

(* The [p]-th percentile of a sorted array of integer samples, each taken
   as the middle of a unit-wide interval: Python's
   [statistics.median_grouped] with interval 1, for any [p].  Simulated
   latencies fall on a few exact values 40 ns apart on commit_disjoint,
   whose nearest-rank median is 1339 ns for every seed; interpolating
   within the value's interval keeps how much of it each seed fills. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let target = p /. 100.0 *. float_of_int n in
    let rank = int_of_float (Float.ceil target) - 1 in
    let v = sorted.(max 0 (min (n - 1) rank)) in
    (* first index whose sample is >= x *)
    let first x =
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if sorted.(mid) < x then go (mid + 1) hi else go lo mid
      in
      go 0 n
    in
    let below = first v and upto = first (v + 1) in
    float_of_int v -. 0.5
    +. ((target -. float_of_int below) /. float_of_int (upto - below))

(* Quartiles the way Python's [statistics.quantiles(values, n=4)]
   computes them (the default "exclusive" method), so the spreads
   printed here match the ones a reader computes from the run records. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  match n with
  | 0 -> (nan, nan, nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
      let q k =
        let m = float_of_int (n + 1) *. float_of_int k /. 4.0 in
        let j = max 1 (min (n - 1) (int_of_float m)) in
        let delta = m -. float_of_int j in
        a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
      in
      (q 1, q 2, q 3)

let median values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One reported number.  [n] is the number of samples behind it: latency
   samples for a percentile, repetitions for a host figure. *)
type metric = { name : string; value : float; unit_ : string; n : int }

let metric name unit_ ~n value = { name; value; unit_; n }

type outcome = {
  workload : string;
  checks : (string * bool) list;  (** Output checks, in the order run. *)
  attempted : int;
  failed : int;
  metrics : metric list;
  info : metric list;  (** Printed, but not part of the result line. *)
}

let correct o = o.checks <> [] && List.for_all snd o.checks

(* Human-readable report, then the one-line JSON result, which must be
   the last line of standard output. *)
let print_outcome o =
  List.iter
    (fun (name, ok) ->
      Printf.printf "check %s %s %s\n" o.workload name
        (if ok then "ok" else "FAILED"))
    o.checks;
  List.iter
    (fun m ->
      Printf.printf "%s %s %s %s (n=%d)\n" o.workload m.name
        (Json.num_to_string m.value) m.unit_ m.n)
    o.metrics;
  List.iter
    (fun m ->
      Printf.printf "%s %s %s %s (n=%d) [not gated]\n" o.workload m.name
        (Json.num_to_string m.value) m.unit_ m.n)
    o.info;
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (correct o));
        ("attempted", Json.Num (float_of_int o.attempted));
        ("failed", Json.Num (float_of_int o.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
                 ))
               o.metrics) );
      ]
  in
  print_endline (Json.to_string json)

(* Run [f 0], [f 1], ... while one more run, as long as the last, still
   fits in [seconds] of wall time counted from the start (always at
   least once).  Returns the results in run order. *)
let repeat ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    let s = Unix.gettimeofday () in
    let acc = f i :: acc in
    let e = Unix.gettimeofday () in
    if e -. t0 +. (e -. s) > seconds then List.rev acc else go (i + 1) acc
  in
  go 0 []

(* One untraced repetition of a workload from empty state. *)
type sample = {
  setup_cpu : float option;  (** Host CPU s before the first operation. *)
  slicer : slicer;  (** The timed section, sliced. *)
  slice_ops : float;  (** Operations in its slices. *)
  heap_mb : float;  (** Peak OCaml heap when the timed section ends. *)
  sim : metric list;  (** Simulated-time figures: repeat exactly. *)
  info : metric list;  (** Reported, not gated (see README.md). *)
  fingerprint : string;  (** More of the simulated outcome, likewise. *)
  checks : (string * bool) list;
  attempted : int;
  failed : int;
}

let setup_samples = 7

(* The untraced measurement: repetitions of one seed until [seconds]
   are spent, the first of them with the output checks.  Simulated
   figures come from the first repetition, and every later one must
   repeat them bit for bit.  Host throughput is the median over
   repetitions, in reference seconds (gated) and in CPU seconds (shown).
   Set-up is timed at least [setup_samples] times ([setup] runs set-up
   alone) and reported as the median.  The heap figure comes from the
   first repetition, before later ones can leave garbage behind. *)
let untraced ~name ~seconds ~rep ~setup =
  let reps = repeat ~seconds (fun i -> rep ~check:(i = 0)) in
  let first = List.hd reps in
  let setups = List.filter_map (fun r -> r.setup_cpu) reps in
  let setups =
    setups
    @ List.init (max 0 (setup_samples - List.length setups)) (fun _ -> setup ())
  in
  let rate f =
    median
      (List.map
         (fun r ->
           let cpu, refs = slice_costs r.slicer in
           r.slice_ops /. f (cpu, refs))
         reps)
  in
  let nreps = List.length reps in
  let repeats =
    List.for_all
      (fun r -> r.sim = first.sim && r.fingerprint = first.fingerprint)
      reps
  in
  {
    workload = name;
    checks = first.checks @ [ ("simulated_figures_repeat", repeats) ];
    attempted = first.attempted;
    failed = first.failed;
    metrics =
      first.sim
      @ [
          metric "host_ops_per_ref_s" "1/ref_s" ~n:nreps (rate snd);
          metric "setup_s" "s" ~n:(List.length setups) (median setups);
          metric "heap_mb" "MiB" ~n:1 first.heap_mb;
        ];
    info = metric "host_ops_per_s" "1/s" ~n:nreps (rate fst) :: first.info;
  }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end
