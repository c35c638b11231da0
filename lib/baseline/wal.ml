type sync = { sim : Sim.t; mu : Sim.Mutex_r.t; cond : Sim.Cond_r.t }

type t = {
  disk : Pcm_disk.t;
  start_block : int;
  blocks : int;
  sync : sync option;
  mutable next_lsn : int;
  mutable flushed_lsn : int;
  mutable pending_bytes : int;
  mutable write_pos : int;  (* block offset within the log area *)
  mutable flushing : bool;
  mutable records : int;
  mutable flushes : int;
}

(* In-mutex software cost per record: buffer management, lock
   subsystem. *)
let serial_ns = 16000

let create ?sim disk ~start_block ~blocks =
  let sync =
    Option.map
      (fun sim ->
        { sim; mu = Sim.Mutex_r.create sim; cond = Sim.Cond_r.create sim })
      sim
  in
  {
    disk;
    start_block;
    blocks;
    sync;
    next_lsn = 0;
    flushed_lsn = -1;
    pending_bytes = 0;
    write_pos = 0;
    flushing = false;
    records = 0;
    flushes = 0;
  }

let records t = t.records
let flushes t = t.flushes

let flush_to_disk t (env : Scm.Env.t) bytes =
  (* Sequential append into the circular log area. *)
  let nblocks = max 1 ((bytes + Pcm_disk.block_bytes - 1) / Pcm_disk.block_bytes) in
  t.write_pos <- (t.write_pos + nblocks) mod t.blocks;
  env.delay (Pcm_disk.write_cost_ns t.disk bytes);
  t.flushes <- t.flushes + 1

let commit_record t (env : Scm.Env.t) bytes =
  match t.sync with
  | None ->
      (* Single-threaded: append + flush immediately. *)
      env.delay (serial_ns + (bytes / 4));
      t.records <- t.records + 1;
      t.next_lsn <- t.next_lsn + 1;
      flush_to_disk t env (bytes + 32);
      t.flushed_lsn <- t.next_lsn - 1
  | Some { mu; cond; _ } ->
      Sim.Mutex_r.lock mu;
      (* In-mutex record insertion: the serialization bottleneck. *)
      env.delay (serial_ns + (bytes / 4));
      let my_lsn = t.next_lsn in
      t.next_lsn <- my_lsn + 1;
      t.pending_bytes <- t.pending_bytes + bytes + 32;
      t.records <- t.records + 1;
      while t.flushed_lsn < my_lsn do
        if t.flushing then Sim.Cond_r.wait cond mu
        else begin
          (* Become the flush leader: release the buffer so later
             committers can insert (and join the next group) while the
             disk write is in flight. *)
          t.flushing <- true;
          let target = t.next_lsn - 1 in
          let bytes_now = t.pending_bytes in
          t.pending_bytes <- 0;
          Sim.Mutex_r.unlock mu;
          flush_to_disk t env bytes_now;
          Sim.Mutex_r.lock mu;
          t.flushed_lsn <- max t.flushed_lsn target;
          t.flushing <- false;
          Sim.Cond_r.broadcast cond
        end
      done;
      Sim.Mutex_r.unlock mu
