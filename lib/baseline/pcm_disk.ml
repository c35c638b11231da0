let block_bytes = 4096

(* The per-request kernel path: block layer + ext2. *)
let software_ns = 2500

type t = {
  latency : Scm.Latency_model.t;
  nblocks : int;
  data : Bytes.t;
  mutable blocks_written : int;
}

let create ?(latency = Scm.Latency_model.default) ~nblocks () =
  {
    latency;
    nblocks;
    data = Bytes.make (nblocks * block_bytes) '\000';
    blocks_written = 0;
  }

let nblocks t = t.nblocks
let latency_model t = t.latency
let blocks_written t = t.blocks_written

let check t block count =
  if block < 0 || block + count > t.nblocks then
    invalid_arg "Pcm_disk: block out of range"

let read_block t (env : Scm.Env.t) block =
  check t block 1;
  env.delay (software_ns / 2);
  Bytes.sub t.data (block * block_bytes) block_bytes

let write_cost_ns t bytes =
  software_ns + Scm.Latency_model.streaming_write_ns t.latency bytes

let write_block t (env : Scm.Env.t) block buf =
  check t block 1;
  if Bytes.length buf <> block_bytes then
    invalid_arg "Pcm_disk.write_block: buffer size";
  Bytes.blit buf 0 t.data (block * block_bytes) block_bytes;
  t.blocks_written <- t.blocks_written + 1;
  env.delay (write_cost_ns t block_bytes)

let write_blocks t (env : Scm.Env.t) block buf =
  let len = Bytes.length buf in
  let count = (len + block_bytes - 1) / block_bytes in
  check t block count;
  Bytes.blit buf 0 t.data (block * block_bytes) len;
  t.blocks_written <- t.blocks_written + count;
  env.delay (write_cost_ns t len)
