(* The "database" keeps authoritative contents in a directory hashtable
   (standing in for parsing records out of page images) while running
   the full mechanical path — page fetch, dirtying, WAL commit,
   checkpoints — against the disk, so the timing and I/O accounting are
   those of a page-based storage manager. *)

type t = {
  disk : Pcm_disk.t;
  wal : Wal.t;
  cache : Page_cache.t;
  op_overhead_ns : int;
  data_pages : int;
  contents : (string, string) Hashtbl.t;
  mutable ops : int;
}

let log_blocks = 256

(* Commits between checkpoint slices. *)
let checkpoint_every = 64

let create ?sim ?(cache_pages = 256) ?(op_overhead_ns = 9000) disk =
  let nblocks = Pcm_disk.nblocks disk in
  if nblocks <= log_blocks + 16 then invalid_arg "Bdb.create: disk too small";
  {
    disk;
    wal = Wal.create ?sim disk ~start_block:0 ~blocks:log_blocks;
    cache = Page_cache.create disk ~capacity_pages:cache_pages;
    op_overhead_ns;
    data_pages = nblocks - log_blocks;
    contents = Hashtbl.create 1024;
    ops = 0;
  }

let length t = Hashtbl.length t.contents

let hash_page t key =
  (Hashtbl.hash key * 2654435761) land max_int mod t.data_pages

let touch_data_page t env key value =
  let page = log_blocks + hash_page t (Bytes.to_string key) in
  let data = Page_cache.get t.cache env page in
  (* Scribble the record into the page image so dirty write-back moves
     real bytes; charge the memcpy. *)
  let off = Hashtbl.hash value land (Pcm_disk.block_bytes - 64 - 1) in
  let n = min (Bytes.length value) 64 in
  if n > 0 then Bytes.blit value 0 data off n;
  Page_cache.mark_dirty t.cache page;
  env.Scm.Env.delay (Bytes.length value / 4)

let maybe_checkpoint t env =
  t.ops <- t.ops + 1;
  if t.ops mod checkpoint_every = 0 then
    ignore (Page_cache.flush_some t.cache env ~max:8)

let put t env key value =
  env.Scm.Env.delay t.op_overhead_ns;
  touch_data_page t env key value;
  Hashtbl.replace t.contents (Bytes.to_string key) (Bytes.to_string value);
  Wal.commit_record t.wal env (Bytes.length key + Bytes.length value + 64);
  maybe_checkpoint t env

let put_nosync t env key value =
  env.Scm.Env.delay t.op_overhead_ns;
  touch_data_page t env key value;
  Hashtbl.replace t.contents (Bytes.to_string key) (Bytes.to_string value);
  t.ops <- t.ops + 1

let flush_dirty t env ?(max = 64) () =
  ignore (Page_cache.flush_some t.cache env ~max)

let get t env key =
  env.Scm.Env.delay (t.op_overhead_ns / 2);
  let page = log_blocks + hash_page t (Bytes.to_string key) in
  ignore (Page_cache.get t.cache env page);
  Option.map Bytes.of_string (Hashtbl.find_opt t.contents (Bytes.to_string key))

let delete t env key =
  env.Scm.Env.delay t.op_overhead_ns;
  let existed = Hashtbl.mem t.contents (Bytes.to_string key) in
  if existed then begin
    touch_data_page t env key (Bytes.create 16);
    Hashtbl.remove t.contents (Bytes.to_string key);
    Wal.commit_record t.wal env (Bytes.length key + 64);
    maybe_checkpoint t env
  end;
  existed
