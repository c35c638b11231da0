module Pmem = Region.Pmem

(* Header (64 bytes):
   [magic | payload_bytes] [capacity] [root+1 | count<<32] [high-water]
   The root pointer and the element count share one word so a single
   atomic write publishes both.  Arena of fixed-size node slots follows:
   node = [left+1] [right+1] [key] [payload...].  Slot references are
   index+1 so zeroed memory reads as null. *)

let magic = 0x5354L
let header_bytes = 64

type t = {
  v : Pmem.view;
  base : int;
  payload : int;
  capacity : int;
  mutable free : int list;  (* volatile free slot indexes *)
}

let align8 n = (n + 7) land lnot 7
let node_bytes payload = 24 + align8 payload

let region_bytes_for ~payload_bytes ~capacity =
  header_bytes + (capacity * node_bytes payload_bytes)

let pub_addr t = t.base + 16
let hw_addr t = t.base + 24
let node_addr t slot = t.base + header_bytes + (slot * node_bytes t.payload)

let f_left a = a
let f_right a = a + 8
let f_key a = a + 16
let f_payload a = a + 24

let pack_pub ~root ~count =
  Int64.logor (Int64.of_int root) (Int64.shift_left (Int64.of_int count) 32)

let unpack_pub w =
  ( Int64.to_int (Int64.logand w 0xffff_ffffL),
    Int64.to_int (Int64.shift_right_logical w 32) )

let published t = unpack_pub (Pmem.load t.v (pub_addr t))

let create v ~base ~payload_bytes ~capacity =
  if capacity < 1 || payload_bytes < 0 then
    invalid_arg "Shadow_tree.create: geometry";
  let t =
    { v; base; payload = payload_bytes; capacity;
      free = List.init capacity Fun.id }
  in
  Pmem.wtstore v (base + 8) (Int64.of_int capacity);
  Pmem.wtstore v (pub_addr t) (pack_pub ~root:0 ~count:0);
  Pmem.wtstore v (hw_addr t) 0L;
  Pmem.fence v;
  Pmem.wtstore v base
    (Int64.logor (Int64.shift_left magic 48) (Int64.of_int payload_bytes));
  Pmem.fence v;
  t

let attach v ~base =
  let hdr = Pmem.load v base in
  if Int64.shift_right_logical hdr 48 <> magic then
    invalid_arg "Shadow_tree.attach: no tree at this address";
  let payload = Int64.to_int (Int64.logand hdr 0xffffL) in
  let capacity = Int64.to_int (Pmem.load v (base + 8)) in
  let t = { v; base; payload; capacity; free = [] } in
  (* "After a failure, a program must find and release unreferenced new
     data": mark from the published root, sweep the rest. *)
  let marked = Array.make capacity false in
  let root, _ = published t in
  let rec mark slot_ref =
    if slot_ref <> 0 then begin
      let slot = slot_ref - 1 in
      if not marked.(slot) then begin
        marked.(slot) <- true;
        let a = node_addr t slot in
        mark (Int64.to_int (Pmem.load v (f_left a)));
        mark (Int64.to_int (Pmem.load v (f_right a)))
      end
    end
  in
  mark root;
  let high_water = Int64.to_int (Pmem.load v (hw_addr t)) in
  let leaked = ref 0 in
  for slot = capacity - 1 downto 0 do
    if not marked.(slot) then begin
      t.free <- slot :: t.free;
      if slot < high_water then incr leaked
    end
  done;
  (t, !leaked)

let take_slot t =
  match t.free with
  | [] -> failwith "Shadow_tree: arena full"
  | slot :: rest ->
      t.free <- rest;
      (* monotonic allocation high-water mark, published before use so
         recovery can tell leaked slots from virgin ones *)
      let hw = Int64.to_int (Pmem.load t.v (hw_addr t)) in
      if slot >= hw then begin
        Pmem.wtstore t.v (hw_addr t) (Int64.of_int (slot + 1));
        Pmem.fence t.v
      end;
      slot

(* Write a fresh node; streaming stores, deliberately unfenced — shadow
   updates have no ordering constraints among the new data's stores. *)
let write_node t slot ~left ~right ~key payload =
  let a = node_addr t slot in
  Pmem.wtstore t.v (f_left a) (Int64.of_int left);
  Pmem.wtstore t.v (f_right a) (Int64.of_int right);
  Pmem.wtstore t.v (f_key a) key;
  let buf = Bytes.make (align8 t.payload) '\000' in
  Bytes.blit payload 0 buf 0 (min (Bytes.length payload) t.payload);
  Pmem.wtstore_bytes t.v (f_payload a) buf 0 (Bytes.length buf)

let node_payload t slot_ref =
  let a = node_addr t (slot_ref - 1) in
  let buf = Bytes.create t.payload in
  Pmem.load_bytes t.v (f_payload a) buf 0 t.payload;
  buf

let put t key payload =
  let root, count = published t in
  (* collect the path from root to the key's position *)
  let rec path acc slot_ref =
    if slot_ref = 0 then (acc, None)
    else
      let a = node_addr t (slot_ref - 1) in
      let k = Pmem.load t.v (f_key a) in
      if key < k then path ((slot_ref, `Left) :: acc) (Int64.to_int (Pmem.load t.v (f_left a)))
      else if key > k then
        path ((slot_ref, `Right) :: acc) (Int64.to_int (Pmem.load t.v (f_right a)))
      else (acc, Some slot_ref)
  in
  let rev_path, existing = path [] root in
  (* the new bottom node *)
  let bottom = take_slot t in
  (match existing with
  | Some slot_ref ->
      let a = node_addr t (slot_ref - 1) in
      write_node t bottom
        ~left:(Int64.to_int (Pmem.load t.v (f_left a)))
        ~right:(Int64.to_int (Pmem.load t.v (f_right a)))
        ~key payload
  | None -> write_node t bottom ~left:0 ~right:0 ~key payload);
  (* copy the ancestors, bottom-up, each pointing at the fresh child *)
  let replaced = ref (match existing with Some s -> [ s - 1 ] | None -> []) in
  let new_root =
    List.fold_left
      (fun child (slot_ref, dir) ->
        let a = node_addr t (slot_ref - 1) in
        let copy = take_slot t in
        let left, right =
          match dir with
          | `Left -> (child + 1, Int64.to_int (Pmem.load t.v (f_right a)))
          | `Right -> (Int64.to_int (Pmem.load t.v (f_left a)), child + 1)
        in
        write_node t copy ~left ~right
          ~key:(Pmem.load t.v (f_key a))
          (node_payload t slot_ref);
        replaced := (slot_ref - 1) :: !replaced;
        copy)
      bottom rev_path
  in
  (* shadow update's single ordering constraint: the new data completes
     before the reference moves *)
  Pmem.fence t.v;
  let count' = if existing = None then count + 1 else count in
  Pmem.wtstore t.v (pub_addr t) (pack_pub ~root:(new_root + 1) ~count:count');
  Pmem.fence t.v;
  (* the old path is unreferenced now; recycle it *)
  t.free <- !replaced @ t.free

let find t key =
  let root, _ = published t in
  let rec go slot_ref =
    if slot_ref = 0 then None
    else
      let a = node_addr t (slot_ref - 1) in
      let k = Pmem.load t.v (f_key a) in
      if key < k then go (Int64.to_int (Pmem.load t.v (f_left a)))
      else if key > k then go (Int64.to_int (Pmem.load t.v (f_right a)))
      else Some (node_payload t slot_ref)
  in
  go root

let length t = snd (published t)

let iter t f =
  let root, _ = published t in
  let rec go slot_ref =
    if slot_ref <> 0 then begin
      let a = node_addr t (slot_ref - 1) in
      go (Int64.to_int (Pmem.load t.v (f_left a)));
      f (Pmem.load t.v (f_key a)) (node_payload t slot_ref);
      go (Int64.to_int (Pmem.load t.v (f_right a)))
    end
  in
  go root

let live_nodes t = t.capacity - List.length t.free
