open struct
  module Scm_device = Scm.Scm_device
  module Cache = Scm.Cache
end

type boot_stats = {
  frames_scanned : int;
  mappings_rebuilt : int;
  boot_ns : int;
}

type t = {
  machine : Scm.Env.machine;
  backing : Backing_store.t;
  table : Mapping_table.t;
  reserved : int;  (* frames occupied by the mapping table *)
  free : int Queue.t;
  resident : (int * int, int) Hashtbl.t;  (* (inode, page_off) -> frame *)
  rev : (int, int * int) Hashtbl.t;  (* frame -> (inode, page_off) *)
  installing : (int * int, unit) Hashtbl.t;
      (* pages claimed in [resident] whose table entry is not yet
         durable *)
  rng : Random.State.t;
  mutable hooks : (inode:int -> page_off:int -> unit) list;
  mutable swaps_out : int;
  mutable swaps_in : int;
  stats : boot_stats;
  page : Bytes.t;
      (* every page copy between a frame and a backing file or another
         frame goes through here: each use fills it and consumes it
         without yielding in between, so fibers can share it *)
}

let boot_stats t = t.stats
let free_frames t = Queue.length t.free
let resident_frames t = Hashtbl.length t.resident
let swaps_out t = t.swaps_out
let swaps_in t = t.swaps_in

let make machine backing table reserved stats =
  {
    machine;
    backing;
    table;
    reserved;
    free = Queue.create ();
    resident = Hashtbl.create 1024;
    rev = Hashtbl.create 1024;
    installing = Hashtbl.create 8;
    rng = Random.State.make [| 0x5a5a |];
    hooks = [];
    swaps_out = 0;
    swaps_in = 0;
    stats;
    page = Bytes.create Scm_device.frame_size;
  }

let format (machine : Scm.Env.machine) backing =
  let nframes = Scm_device.nframes machine.dev in
  let table = Mapping_table.create machine.dev in
  Mapping_table.format table machine.dev;
  let reserved = Mapping_table.frames_for ~nframes in
  let stats = { frames_scanned = nframes; mappings_rebuilt = 0; boot_ns = 0 } in
  let t = make machine backing table reserved stats in
  for f = reserved to nframes - 1 do
    Queue.push f t.free
  done;
  t

(* Simulated cost of scanning one mapping-table entry at boot. *)
let frame_reconstruct_ns = 2800

let boot (machine : Scm.Env.machine) backing =
  let nframes = Scm_device.nframes machine.dev in
  let table = Mapping_table.create machine.dev in
  let reserved = Mapping_table.frames_for ~nframes in
  (match Mapping_table.get table 0 with
  | Mapping_table.Reserved -> ()
  | _ -> failwith "Manager.boot: device is not formatted");
  let t = make machine backing table reserved
      { frames_scanned = 0; mappings_rebuilt = 0; boot_ns = 0 } in
  let rebuilt = ref 0 in
  let duplicates = ref [] in
  Mapping_table.iter table (fun frame entry ->
      match entry with
      | Mapping_table.Reserved -> ()
      | Mapping_table.Free -> Queue.push frame t.free
      | Mapping_table.Mapped { inode; page_off } ->
          if Hashtbl.mem t.resident (inode, page_off) then
            (* a crash mid-migration (wear leveling) can leave two
               frames holding identical copies of a page: keep the
               first, release the duplicate *)
            duplicates := frame :: !duplicates
          else begin
            Hashtbl.replace t.resident (inode, page_off) frame;
            Hashtbl.replace t.rev frame (inode, page_off);
            incr rebuilt
          end);
  let kenv = Scm.Env.standalone machine in
  List.iter
    (fun frame ->
      Mapping_table.set_free table kenv ~frame;
      Queue.push frame t.free)
    !duplicates;
  {
    t with
    stats =
      {
        frames_scanned = nframes;
        mappings_rebuilt = !rebuilt;
        boot_ns = nframes * frame_reconstruct_ns;
      };
  }

let frame_of t ~inode ~page_off = Hashtbl.find_opt t.resident (inode, page_off)

let frame_addr frame = frame * Scm_device.frame_size

(* Drain every write-combining buffer holding a streaming store into
   [frame], as the TLB shootdown's interrupt drains each CPU's buffers
   on real hardware: a store drained after the frame left its page
   would land in whatever page owns the frame by then.  Then write back
   any dirty cache lines covering [frame] and invalidate them all, so
   the device holds the truth and no stale line shadows data loaded
   into a recycled frame.  Eviction, [punmap] and wear-level migration
   all pass through here. *)
let purge_frame_lines ?(writeback = true) t frame =
  let base = frame_addr frame in
  List.iter
    (fun wc ->
      if Scm.Wc_buffer.pending_in_span wc base Scm_device.frame_size then
        Scm.Wc_buffer.drain wc)
    t.machine.wc_buffers;
  let a = ref base in
  while !a < base + Scm_device.frame_size do
    if writeback then Cache.writeback_line t.machine.cache !a;
    Cache.invalidate_line t.machine.cache !a;
    a := !a + Cache.line_size
  done

let detach t env frame ~write_back =
  match Hashtbl.find_opt t.rev frame with
  | None -> ()
  | Some (inode, page_off) ->
      if write_back then begin
        purge_frame_lines t frame;
        Scm_device.read_into t.machine.dev (frame_addr frame) t.page 0
          Scm_device.frame_size;
        Backing_store.write_page t.backing inode page_off t.page;
        env.Scm.Env.delay Backing_store.page_io_ns;
        t.swaps_out <- t.swaps_out + 1;
        let obs = t.machine.Scm.Env.obs in
        Obs.Metrics.incr
          (Obs.Metrics.counter obs.Obs.metrics "region.swaps_out");
        Obs.instant_at obs Obs.Trace.Swap_out ~ts:(env.Scm.Env.now ())
          ~arg:frame
      end
      else purge_frame_lines ~writeback:false t frame;
      Mapping_table.set_free t.table env ~frame;
      Hashtbl.remove t.resident (inode, page_off);
      Hashtbl.remove t.rev frame;
      List.iter (fun hook -> hook ~inode ~page_off) t.hooks

let pick_victim t =
  (* a frame still being installed is not evictable *)
  let n = Hashtbl.length t.resident - Hashtbl.length t.installing in
  if n <= 0 then None
  else begin
    (* Reservoir-sample a random resident frame. *)
    let idx = Random.State.int t.rng n in
    let i = ref 0 in
    let victim = ref None in
    (try
       Hashtbl.iter
         (fun page frame ->
           if not (Hashtbl.mem t.installing page) then begin
             if !i = idx then begin
               victim := Some frame;
               raise Exit
             end;
             incr i
           end)
         t.resident
     with Exit -> ());
    !victim
  end

let evict_one t env =
  match pick_victim t with
  | None -> false
  | Some frame ->
      detach t env frame ~write_back:true;
      Queue.push frame t.free;
      true

let take_frame t env =
  match Queue.take_opt t.free with
  | Some f -> f
  | None ->
      if not (evict_one t env) then
        failwith "Manager: out of SCM frames and nothing evictable";
      Queue.take t.free

(* A frame found while another fiber is still installing it is not
   yet durably mapped: post the same (idempotent) table entry under this
   fiber's own fence before using it. *)
let settle t env frame ~inode ~page_off =
  if Hashtbl.mem t.installing (inode, page_off) then
    Mapping_table.set_mapped t.table env ~frame ~inode ~page_off;
  frame

(* Map [frame] for the page — unless another fiber mapped it while this
   one yielded (taking a frame can evict, reading the page in charges
   I/O): then [frame] goes back to the free list and the winner's frame
   is used.  The re-check and the volatile claim are one yield-free
   step, so concurrent faults of one page never map two frames; the
   durable table entry is written after the claim. *)
let install t env frame ~inode ~page_off =
  let page = (inode, page_off) in
  match Hashtbl.find_opt t.resident page with
  | Some winner ->
      Queue.push frame t.free;
      settle t env winner ~inode ~page_off
  | None ->
      Hashtbl.replace t.resident page frame;
      Hashtbl.replace t.rev frame page;
      Hashtbl.replace t.installing page ();
      Mapping_table.set_mapped t.table env ~frame ~inode ~page_off;
      Hashtbl.remove t.installing page;
      frame

let fault_in t env ~inode ~page_off =
  match frame_of t ~inode ~page_off with
  | Some frame -> settle t env frame ~inode ~page_off
  | None ->
      let frame = take_frame t env in
      purge_frame_lines ~writeback:false t frame;
      Backing_store.read_page t.backing inode page_off t.page;
      Scm_device.write_from t.machine.dev (frame_addr frame) t.page 0
        Scm_device.frame_size;
      env.Scm.Env.delay Backing_store.page_io_ns;
      t.swaps_in <- t.swaps_in + 1;
      let obs = t.machine.Scm.Env.obs in
      Obs.Metrics.incr (Obs.Metrics.counter obs.Obs.metrics "region.swaps_in");
      Obs.instant_at obs Obs.Trace.Swap_in ~ts:(env.Scm.Env.now ()) ~arg:frame;
      install t env frame ~inode ~page_off

let release_pages t env ~inode =
  let frames =
    Hashtbl.fold
      (fun (i, _) frame acc -> if i = inode then frame :: acc else acc)
      t.resident []
  in
  List.iter
    (fun frame ->
      detach t env frame ~write_back:false;
      Queue.push frame t.free)
    frames

let sync_to_backing t env ~inode =
  let pages =
    Hashtbl.fold
      (fun (i, off) frame acc -> if i = inode then (off, frame) :: acc else acc)
      t.resident []
  in
  List.iter
    (fun (page_off, frame) ->
      purge_frame_lines t frame;
      Scm_device.read_into t.machine.dev (frame_addr frame) t.page 0
        Scm_device.frame_size;
      Backing_store.write_page t.backing inode page_off t.page;
      env.Scm.Env.delay Backing_store.page_io_ns)
    pages

let on_evict t hook = t.hooks <- hook :: t.hooks

(* Pages one {!wear_level} call migrates at most. *)
let max_moves = 64

let wear_level t env ~threshold =
  let dev = t.machine.dev in
  let nframes = Scm_device.nframes dev in
  let mean =
    float_of_int (Scm_device.total_writes dev) /. float_of_int nframes
  in
  let limit = threshold *. max 1.0 mean in
  (* hottest resident frames first *)
  let hot =
    Hashtbl.fold
      (fun (inode, page_off) frame acc ->
        let w = Scm_device.write_count dev frame in
        if float_of_int w > limit then (w, frame, inode, page_off) :: acc
        else acc)
      t.resident []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a)
  in
  let coldest_free () =
    Queue.fold
      (fun acc f ->
        match acc with
        | Some best
          when Scm_device.write_count dev best <= Scm_device.write_count dev f
          ->
            acc
        | _ -> Some f)
      None t.free
  in
  let moves = ref 0 in
  (try
     List.iter
       (fun (w, frame, inode, page_off) ->
         if !moves >= max_moves then raise Exit;
         match coldest_free () with
         | Some target when Scm_device.write_count dev target < w ->
             (* take [target] off the free list *)
             let remaining = Queue.create () in
             Queue.iter
               (fun f -> if f <> target then Queue.push f remaining)
               t.free;
             Queue.clear t.free;
             Queue.transfer remaining t.free;
             (* 1. settle and copy the page contents *)
             purge_frame_lines t frame;
             purge_frame_lines ~writeback:false t target;
             let fs = Scm_device.frame_size in
             Scm_device.read_into dev (frame_addr frame) t.page 0 fs;
             Scm_device.write_from dev (frame_addr target) t.page 0 fs;
             env.Scm.Env.delay (fs / 4);  (* memcpy *)
             (* 2. install the new mapping durably, then 3. free the
                old frame; a crash in between leaves two identical
                copies, either of which recovery may keep *)
             Mapping_table.set_mapped t.table env ~frame:target ~inode
               ~page_off;
             Mapping_table.set_free t.table env ~frame;
             Hashtbl.replace t.resident (inode, page_off) target;
             Hashtbl.remove t.rev frame;
             Hashtbl.replace t.rev target (inode, page_off);
             Queue.push frame t.free;
             List.iter (fun hook -> hook ~inode ~page_off) t.hooks;
             Obs.Metrics.incr
               (Obs.Metrics.counter t.machine.Scm.Env.obs.Obs.metrics
                  "region.wear_moves");
             incr moves
         | _ -> ())
       hot
   with Exit -> ());
  !moves
