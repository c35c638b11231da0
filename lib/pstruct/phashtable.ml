module Txn = Mtm.Txn

(* Header block (576 bytes):
   [magic | bucket_count] [buckets array address], then 8 sharded entry
   counters spaced a cache line apart — the STM locks at line
   granularity, so shards must not share lines or every transaction
   would conflict on the count.

   Chain node block, with key and value inlined so an insert touches as
   few distinct cache lines as the paper's measurement (5 for a 64-byte
   value):
   [next] [hash] [key len | value len] [key bytes...] [value bytes...]
   both byte ranges 8-aligned. *)

let magic = 0x48L
let counter_shards = 8
let counter_stride = 64

type t = { root : int; buckets : int; array_addr : int }

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let hash_bytes b =
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    b;
  Int64.logand !h Int64.max_int

let pack_header buckets =
  Int64.logor (Int64.shift_left magic 56) (Int64.of_int buckets)

let pack_lens ~klen ~vlen =
  Int64.logor (Int64.of_int klen) (Int64.shift_left (Int64.of_int vlen) 24)

let unpack_lens w =
  ( Int64.to_int (Int64.logand w 0xff_ffffL),
    Int64.to_int (Int64.logand (Int64.shift_right_logical w 24) 0xff_ffffL) )

let align8 n = (n + 7) land lnot 7

let node_bytes ~klen ~vlen = 24 + align8 klen + align8 vlen
let key_addr node = node + 24
let value_addr node klen = node + 24 + align8 klen

(* Shard by the updating thread, not the key: concurrent transactions
   then never conflict on the count. *)
let counter_addr t tx =
  t.root + 64
  + (counter_stride * (Txn.thread_id tx land (counter_shards - 1)))

let create tx ~slot ~buckets =
  let buckets = next_pow2 (max 1 buckets) in
  let root = Txn.alloc tx (64 + (counter_stride * counter_shards)) ~slot in
  Txn.store tx root (pack_header buckets);
  for i = 0 to counter_shards - 1 do
    Txn.store tx (root + 64 + (counter_stride * i)) 0L
  done;
  let array_addr = Txn.alloc tx (buckets * 8) ~slot:(root + 8) in
  (* fresh blocks may hold stale bytes from freed predecessors *)
  for i = 0 to buckets - 1 do
    Txn.store tx (array_addr + (i * 8)) 0L
  done;
  { root; buckets; array_addr }

let attach tx ~root =
  let hdr = Txn.load tx root in
  if Int64.shift_right_logical hdr 56 <> magic then
    invalid_arg "Phashtable.attach: no table at this address";
  let buckets = Int64.to_int (Int64.logand hdr 0xff_ffffL) in
  { root; buckets; array_addr = Int64.to_int (Txn.load tx (root + 8)) }

let bucket_addr t key_hash =
  t.array_addr + (Int64.to_int key_hash land (t.buckets - 1) * 8)

let node_key tx node =
  let klen, _ = unpack_lens (Txn.load tx (node + 16)) in
  Txn.read_bytes tx (key_addr node) klen

let node_value tx node =
  let klen, vlen = unpack_lens (Txn.load tx (node + 16)) in
  Txn.read_bytes tx (value_addr node klen) vlen

(* Walk the chain; returns (slot that points at the node, node). *)
let find_node tx t key =
  let h = hash_bytes key in
  let rec walk slot =
    match Int64.to_int (Txn.load tx slot) with
    | 0 -> None
    | node ->
        if Txn.load tx (node + 8) = h && node_key tx node = key then
          Some (slot, node)
        else walk node  (* node+0 is the next pointer *)
  in
  walk (bucket_addr t h)

let bump tx t delta =
  let a = counter_addr t tx in
  Txn.store tx a (Int64.add (Txn.load tx a) delta)

let write_node_contents tx node key value =
  Txn.store tx (node + 16)
    (pack_lens ~klen:(Bytes.length key) ~vlen:(Bytes.length value));
  if Bytes.length key > 0 then Txn.write_bytes tx (key_addr node) key;
  if Bytes.length value > 0 then
    Txn.write_bytes tx (value_addr node (Bytes.length key)) value

(* Allocate and fill a fresh node whose [next] is [next]; the node
   address lands in [link_slot] transactionally. *)
let fresh_node tx key value ~link_slot ~next =
  let node =
    Txn.alloc tx
      (node_bytes ~klen:(Bytes.length key) ~vlen:(Bytes.length value))
      ~slot:link_slot
  in
  Txn.store tx node next;
  Txn.store tx (node + 8) (hash_bytes key);
  write_node_contents tx node key value;
  node

let put tx t key value =
  match find_node tx t key with
  | Some (slot, node) ->
      let klen, vlen = unpack_lens (Txn.load tx (node + 16)) in
      if klen = Bytes.length key && align8 vlen = align8 (Bytes.length value)
      then
        (* in-place update: the block still fits the new value *)
        write_node_contents tx node key value
      else begin
        (* size changes: replace the node *)
        let next = Txn.load tx node in
        ignore (fresh_node tx key value ~link_slot:slot ~next);
        Txn.free_addr tx node
      end
  | None ->
      let h = hash_bytes key in
      let bucket = bucket_addr t h in
      let old_head = Txn.load tx bucket in
      ignore (fresh_node tx key value ~link_slot:bucket ~next:old_head);
      bump tx t 1L

let find tx t key =
  match find_node tx t key with
  | None -> None
  | Some (_, node) -> Some (node_value tx node)

let remove tx t key =
  match find_node tx t key with
  | None -> false
  | Some (slot, node) ->
      Txn.store tx slot (Txn.load tx node);
      Txn.free_addr tx node;
      bump tx t (-1L);
      true

let length tx t =
  let total = ref 0L in
  for i = 0 to counter_shards - 1 do
    total :=
      Int64.add !total (Txn.load tx (t.root + 64 + (counter_stride * i)))
  done;
  Int64.to_int !total
