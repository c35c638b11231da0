(* Metadata/leaf pages dirtied per update, bytes of value per further
   dirty page (mmap write amplification), ns per synced page. *)
let base_pages_per_update = 2
let bytes_per_extra_page = 34
let page_sync_ns = 12000

type t = {
  disk : Pcm_disk.t;
  contents : (string, string) Hashtbl.t;
  mu : Sim.Mutex_r.t option;  (* the kernel's mmap write-back lock *)
}

let create ?sim disk =
  {
    disk;
    contents = Hashtbl.create 1024;
    mu = Option.map Sim.Mutex_r.create sim;
  }

let length t = Hashtbl.length t.contents

let msync_update t (env : Scm.Env.t) value_bytes =
  let pages = base_pages_per_update + (value_bytes / bytes_per_extra_page) in
  let work () =
    env.delay
      (pages * page_sync_ns
      + Scm.Latency_model.streaming_write_ns (Pcm_disk.latency_model t.disk)
          (pages * Pcm_disk.block_bytes))
  in
  (* msync of a shared mapping serializes in the kernel: threads only
     overlap their user-level work, which is why the paper saw just
     +10% from a second Tokyo Cabinet thread *)
  match t.mu with
  | Some mu -> Sim.Mutex_r.with_lock mu work
  | None -> work ()

let put t env key value =
  Hashtbl.replace t.contents (Bytes.to_string key) (Bytes.to_string value);
  msync_update t env (Bytes.length value)

let get t (env : Scm.Env.t) key =
  env.delay 500;  (* in-memory tree walk *)
  Option.map Bytes.of_string (Hashtbl.find_opt t.contents (Bytes.to_string key))

let delete t env key =
  let existed = Hashtbl.mem t.contents (Bytes.to_string key) in
  if existed then begin
    Hashtbl.remove t.contents (Bytes.to_string key);
    msync_update t env 16
  end;
  existed
