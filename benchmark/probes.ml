(* Per-operation cost probes for the traced run, each measured on the
   main thread from the benchmark's own calls into a public function.
   Every probe is repeated and reported as the median, in host ns (and
   simulated ns where the layer charges simulated time). *)

type t = {
  event_host_ns : float;  (* one Sim.delay round trip between two fibers *)
  commit_host_ns : float;  (* one 4R/8W Txn.run outside Sim *)
  put_host_ns : float;
  get_host_ns : float;
  put_sim_ns : float;
  get_sim_ns : float;
}

let median_of k f = Meas.median (List.init k (fun _ -> f ()))

(* Two fibers ping-ponging [Sim.delay]: the scheduler's cost per event. *)
let event ~n () =
  let sim = Sim.create () in
  for _ = 1 to 2 do
    Sim.spawn sim (fun () ->
        for _ = 1 to n do
          Sim.delay sim 1
        done)
  done;
  let t0 = Meas.mono_ns () in
  Sim.run sim;
  float_of_int (Meas.mono_ns () - t0) /. float_of_int (2 * n)

(* The commit workloads' transaction on the main thread, outside Sim:
   what one commit costs without the scheduler. *)
let commit ~dir ~n () =
  Meas.rm_rf dir;
  Meas.mkdir_p dir;
  let inst =
    Mnemosyne.open_instance ~geometry:Commit_wl.geometry
      ~mtm:(Commit_wl.mtm_config ~threads:1) ~dir ()
  in
  let slot = Mnemosyne.pstatic inst "bench.slab" 8 in
  let slab = Mnemosyne.pmalloc inst (Commit_wl.window_words * 8) ~slot in
  let rng = Random.State.make [| 7 |] in
  let off () = slab + (8 * Random.State.int rng Commit_wl.window_words) in
  let txn () =
    let r = Array.init Commit_wl.reads (fun _ -> off ()) in
    let w = Array.init Commit_wl.writes (fun _ -> off ()) in
    Mnemosyne.atomically inst (fun tx ->
        Array.iter (fun a -> ignore (Mtm.Txn.load tx a)) r;
        Array.iter
          (fun a -> Mtm.Txn.store tx a (Int64.succ (Mtm.Txn.load tx a)))
          w)
  in
  for _ = 1 to n / 4 do
    txn ()
  done;
  let t0 = Meas.mono_ns () in
  for _ = 1 to n do
    txn ()
  done;
  let ns = float_of_int (Meas.mono_ns () - t0) /. float_of_int n in
  Meas.rm_rf dir;
  ns

(* [Tc_store.put] and [get] on a prefilled tree, one main-thread worker
   on a standalone environment (whose clock gives the simulated cost). *)
let store ~dir ~keys ~n =
  Meas.rm_rf dir;
  Meas.mkdir_p dir;
  let inst = Mnemosyne.open_instance ~geometry:Serve_wl.geometry ~dir () in
  let store = Apps.Tc_store.create_mnemosyne inst in
  let env = (Mnemosyne.view inst).Region.Pmem.env in
  let w = Apps.Tc_store.worker store 0 env in
  let kg = Workload.Keygen.create ~seed:11 () in
  let value () = Workload.Keygen.value kg 128 in
  for k = 0 to keys - 1 do
    Apps.Tc_store.put w (Int64.of_int k) (value ())
  done;
  let time f =
    let keys =
      Array.init n (fun _ ->
          Int64.of_int (Workload.Keygen.uniform_int kg keys))
    in
    let values = Array.map (fun _ -> value ()) keys in
    let s0 = env.Scm.Env.now () in
    let t0 = Meas.mono_ns () in
    Array.iteri (fun i k -> f k values.(i)) keys;
    let host = float_of_int (Meas.mono_ns () - t0) /. float_of_int n in
    (host, float_of_int (env.Scm.Env.now () - s0) /. float_of_int n)
  in
  let put = time (fun k v -> Apps.Tc_store.put w k v) in
  let get = time (fun k _ -> ignore (Apps.Tc_store.get w k)) in
  Meas.rm_rf dir;
  (put, get)

let scale ~quick = if quick then 10 else 1
let event_n ~quick = 200_000 / scale ~quick
let commit_n ~quick = 5_000 / scale ~quick
let store_n ~quick = 5_000 / scale ~quick

let run ~dir ~quick =
  let event_host_ns = median_of 5 (event ~n:(event_n ~quick)) in
  let commit_host_ns = median_of 3 (commit ~dir ~n:(commit_n ~quick)) in
  let (put_host_ns, put_sim_ns), (get_host_ns, get_sim_ns) =
    store ~dir ~keys:(20_000 / scale ~quick) ~n:(store_n ~quick)
  in
  {
    event_host_ns;
    commit_host_ns;
    put_host_ns;
    get_host_ns;
    put_sim_ns;
    get_sim_ns;
  }

(* [n] is the number of timed operations behind each figure. *)
let metrics ~quick p =
  let m name unit_ n v = Meas.metric name unit_ ~n v in
  [
    m "sim.event_host_ns" "ns" (10 * event_n ~quick) p.event_host_ns;
    m "mtm.probe_commit_host_ns" "ns" (3 * commit_n ~quick) p.commit_host_ns;
    m "apps.put_host_ns" "ns" (store_n ~quick) p.put_host_ns;
    m "apps.get_host_ns" "ns" (store_n ~quick) p.get_host_ns;
    m "apps.put_sim_ns" "sim_ns" (store_n ~quick) p.put_sim_ns;
    m "apps.get_sim_ns" "sim_ns" (store_n ~quick) p.get_sim_ns;
  ]
