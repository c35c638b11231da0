let encode entries =
  let buf = Buffer.create 4096 in
  Buffer.add_int64_le buf (Int64.of_int (List.length entries));
  List.iter
    (fun (k, v) ->
      Buffer.add_int64_le buf k;
      Buffer.add_int64_le buf (Int64.of_int (Bytes.length v));
      Buffer.add_bytes buf v)
    entries;
  Buffer.to_bytes buf

let decode bytes =
  let pos = ref 0 in
  let read64 () =
    let v = Bytes.get_int64_le bytes !pos in
    pos := !pos + 8;
    v
  in
  let n = Int64.to_int (read64 ()) in
  List.init n (fun _ ->
      let k = read64 () in
      let len = Int64.to_int (read64 ()) in
      let v = Bytes.sub bytes !pos len in
      pos := !pos + len;
      (k, v))

(* Boost's archive overhead. *)
let cpu_ns_per_byte = 3

let serialize disk (env : Scm.Env.t) ~start_block entries =
  let payload = encode entries in
  env.delay (cpu_ns_per_byte * Bytes.length payload);
  (* length header block + payload *)
  let header = Bytes.make Pcm_disk.block_bytes '\000' in
  Bytes.set_int64_le header 0 (Int64.of_int (Bytes.length payload));
  Pcm_disk.write_block disk env start_block header;
  Pcm_disk.write_blocks disk env (start_block + 1) payload;
  Bytes.length payload

let deserialize disk (env : Scm.Env.t) ~start_block =
  let header = Pcm_disk.read_block disk env start_block in
  let len = Int64.to_int (Bytes.get_int64_le header 0) in
  let nblocks = (len + Pcm_disk.block_bytes - 1) / Pcm_disk.block_bytes in
  let buf = Buffer.create len in
  for b = 0 to nblocks - 1 do
    Buffer.add_bytes buf (Pcm_disk.read_block disk env (start_block + 1 + b))
  done;
  decode (Bytes.sub (Buffer.to_bytes buf) 0 len)
