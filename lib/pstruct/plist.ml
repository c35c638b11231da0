module Txn = Mtm.Txn

(* Header: [magic] [count] [head] [scratch]; node: [next] [value blob]. *)

let magic = 0x504CL

type t = { hdr : int }

let count_addr t = t.hdr + 8
let head_addr t = t.hdr + 16

let create tx ~slot =
  let hdr = Txn.alloc tx 32 ~slot in
  Txn.store tx hdr magic;
  Txn.store tx (hdr + 8) 0L;
  Txn.store tx (hdr + 16) 0L;
  Txn.store tx (hdr + 24) 0L;
  { hdr }

let attach tx ~root =
  if Txn.load tx root <> magic then
    invalid_arg "Plist.attach: no list at this address";
  { hdr = root }

let push tx t value =
  let old_head = Txn.load tx (head_addr t) in
  let node = Txn.alloc tx 16 ~slot:(head_addr t) in
  Txn.store tx node old_head;
  ignore (Blob.alloc tx ~slot:(node + 8) value);
  Txn.store tx (count_addr t) (Int64.add (Txn.load tx (count_addr t)) 1L)

let pop tx t =
  match Int64.to_int (Txn.load tx (head_addr t)) with
  | 0 -> None
  | node ->
      let value = Blob.read tx (Int64.to_int (Txn.load tx (node + 8))) in
      Txn.store tx (head_addr t) (Txn.load tx node);
      Blob.free tx ~slot:(node + 8);
      Txn.free_addr tx node;
      Txn.store tx (count_addr t) (Int64.sub (Txn.load tx (count_addr t)) 1L);
      Some value

let length tx t = Int64.to_int (Txn.load tx (count_addr t))

let iter tx t f =
  let rec walk node =
    if node <> 0 then begin
      f (Blob.read tx (Int64.to_int (Txn.load tx (node + 8))));
      walk (Int64.to_int (Txn.load tx node))
    end
  in
  walk (Int64.to_int (Txn.load tx (head_addr t)))

let to_list tx t =
  let acc = ref [] in
  iter tx t (fun b -> acc := b :: !acc);
  List.rev !acc
