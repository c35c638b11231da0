module Pmem = Region.Pmem

type geometry = {
  scm_frames : int;
  heap_superblocks : int;
  heap_large_bytes : int;
}

let default_geometry =
  { scm_frames = 16384; heap_superblocks = 256;
    heap_large_bytes = 4 * 1024 * 1024 }

type reincarnation_stats = {
  boot_ns : int;
  remap_ns : int;
  heap_scavenge_ns : int;
  txns_replayed : int;
  txn_replay_ns : int;
}

type t = {
  dir : string;
  geometry : geometry;
  latency : Scm.Latency_model.t;
  mtm_cfg : Mtm.Txn.config;
  seed : int;
  machine : Scm.Env.machine;
  pmem : Region.Pmem.t;
  heap : Pmheap.Heap.t;
  pool : Mtm.Txn.pool;
  main_view : Pmem.view;
  mutable main_thread : Mtm.Txn.thread option;
  stats : reincarnation_stats;
}

let machine t = t.machine
let obs t = t.machine.Scm.Env.obs
let pmem t = t.pmem
let heap t = t.heap
let pool t = t.pool
let view t = t.main_view
let reincarnation_stats t = t.stats

let image_path dir = Filename.concat dir "scm.img"
let backing_path dir = Filename.concat dir "backing"

let is_instance_dir dir =
  Sys.file_exists dir
  && Sys.is_directory dir
  && (Sys.file_exists (image_path dir) || Sys.file_exists (backing_path dir))

let reset_dir dir =
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if not (Sys.file_exists dir) then Ok ()
  else if not (Sys.is_directory dir) then
    Error (Printf.sprintf "%s exists and is not a directory" dir)
  else if Array.length (Sys.readdir dir) = 0 then Ok ()
  else if is_instance_dir dir then Ok (rm_rf dir)
  else
    Error
      (Printf.sprintf
         "%s is non-empty and does not look like a Mnemosyne instance \
          directory (no scm.img or backing/); refusing to delete it"
         dir)

let prepare_machine ?(geometry = default_geometry)
    ?(latency = Scm.Latency_model.default) ?(seed = 42) ?obs ?crash_point
    ~dir () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if Sys.file_exists (image_path dir) then
    let dev = Scm.Scm_device.load_image (image_path dir) in
    Scm.Env.machine_of_device ~latency ~seed ?obs ?crash_point dev
  else
    Scm.Env.make_machine ~latency ~seed ?obs ?crash_point
      ~nframes:geometry.scm_frames ()

let open_instance ?(geometry = default_geometry)
    ?(latency = Scm.Latency_model.default)
    ?(mtm = Mtm.Txn.default_config) ?(seed = 42) ?obs ?machine ~dir () =
  let machine =
    match machine with
    | Some m -> m
    | None -> prepare_machine ~geometry ~latency ~seed ?obs ~dir ()
  in
  let backing = Region.Backing_store.open_dir (backing_path dir) in
  let pmem = Region.Pmem.open_instance machine backing in
  let v = Pmem.default_view pmem in
  let heap =
    let slot = Region.Pstatic.get v "mnemosyne.heap" 8 in
    match Int64.to_int (Pmem.load v slot) with
    | 0 ->
        let bytes =
          Pmheap.Heap.region_bytes_for ~superblocks:geometry.heap_superblocks
            ~large_bytes:geometry.heap_large_bytes
        in
        let base = Pmem.pmap v bytes in
        Pmem.wtstore v slot (Int64.of_int base);
        Pmem.fence v;
        Pmheap.Heap.create v ~base ~superblocks:geometry.heap_superblocks
          ~large_bytes:geometry.heap_large_bytes
    | base -> Pmheap.Heap.attach v ~base
  in
  let replay_t0 = v.Pmem.env.now () in
  let pool = Mtm.Txn.create_pool ~config:mtm pmem (Some heap) in
  let txn_replay_ns = v.Pmem.env.now () - replay_t0 in
  let boot = Region.Manager.boot_stats (Pmem.manager pmem) in
  {
    dir;
    geometry;
    latency;
    mtm_cfg = mtm;
    seed;
    machine;
    pmem;
    heap;
    pool;
    main_view = v;
    main_thread = None;
    stats =
      {
        boot_ns = boot.boot_ns;
        remap_ns = Pmem.remap_ns pmem;
        heap_scavenge_ns = (Pmheap.Heap.reincarnation heap).scavenge_ns;
        txns_replayed = Mtm.Txn.recovered_txns pool;
        txn_replay_ns;
      };
  }

let close t =
  Pmem.close t.main_view;
  Scm.Scm_device.save_image t.machine.dev (image_path t.dir)

let crash_to_disk ?policy machine ~dir =
  Scm.Crash.inject ?policy machine;
  Scm.Scm_device.save_image machine.Scm.Env.dev (image_path dir)

let reincarnate t =
  crash_to_disk t.machine ~dir:t.dir;
  (* keep the same observability handle so metrics and the trace span
     the crash *)
  open_instance ~geometry:t.geometry ~latency:t.latency ~mtm:t.mtm_cfg
    ~seed:(t.seed + 1) ~obs:t.machine.Scm.Env.obs ~dir:t.dir ()

(* ------------------------------------------------------------------ *)
(* Table-3 API                                                         *)

let pstatic t name len = Region.Pstatic.get t.main_view name len
let pmap t len = Pmem.pmap t.main_view len
let punmap t addr = Pmem.punmap t.main_view addr
let pmalloc t size ~slot = Pmheap.Heap.pmalloc t.heap size ~slot
let pfree t ~slot = Pmheap.Heap.pfree t.heap ~slot

let thread t i env = Mtm.Txn.thread t.pool i env

let atomically t f =
  let th =
    match t.main_thread with
    | Some th -> th
    | None ->
        let th = Mtm.Txn.thread t.pool 0 t.main_view.Pmem.env in
        t.main_thread <- Some th;
        th
  in
  Mtm.Txn.run th f

module Log = struct
  type log = { rawl : Pmlog.Rawl.t; recovered : int64 array list }

  let create t ~name ~cap_words =
    let v = t.main_view in
    let slot = Region.Pstatic.get v ("mnemosyne.log." ^ name) 8 in
    match Int64.to_int (Pmem.load v slot) with
    | 0 ->
        let base = Pmem.pmap v (Pmlog.Rawl.region_bytes_for ~cap_words) in
        let rawl = Pmlog.Rawl.create v ~base ~cap_words in
        Pmem.wtstore v slot (Int64.of_int base);
        Pmem.fence v;
        { rawl; recovered = [] }
    | base ->
        let rawl, recovered = Pmlog.Rawl.attach v ~base in
        { rawl; recovered }

  let recovered l = l.recovered

  let append l record =
    match Pmlog.Rawl.append l.rawl record with
    | Pmlog.Rawl.Appended _ -> ()
    | Pmlog.Rawl.Full ->
        (* Synchronous truncation keeps the append path simple; callers
           wanting retention manage the head themselves via Pmlog. *)
        Pmlog.Rawl.flush l.rawl;
        Pmlog.Rawl.truncate_all l.rawl;
        (match Pmlog.Rawl.append l.rawl record with
        | Pmlog.Rawl.Appended _ -> ()
        | Pmlog.Rawl.Full -> failwith "Mnemosyne.Log: record exceeds capacity")

  let flush l = Pmlog.Rawl.flush l.rawl
  let truncate l = Pmlog.Rawl.truncate_all l.rawl
end
