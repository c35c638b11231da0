module Txn = Mtm.Txn

(* Header block: [magic] [count] [root ptr] [scratch slot].
   Node block (40 bytes, 64-byte class):
   [left] [right] [height] [key] [value blob addr]. *)

let magic = 0x41564CL

type t = { hdr : int }

let f_left n = n
let f_right n = n + 8
let f_height n = n + 16
let f_key n = n + 24
let f_value n = n + 32

let count_addr t = t.hdr + 8
let root_addr t = t.hdr + 16
let scratch_addr t = t.hdr + 24

let create tx ~slot =
  let hdr = Txn.alloc tx 32 ~slot in
  Txn.store tx hdr magic;
  Txn.store tx (hdr + 8) 0L;
  Txn.store tx (hdr + 16) 0L;
  Txn.store tx (hdr + 24) 0L;
  { hdr }

let attach tx ~root =
  if Txn.load tx root <> magic then
    invalid_arg "Avl_tree.attach: no tree at this address";
  { hdr = root }

let height tx node =
  if node = 0 then 0 else Int64.to_int (Txn.load tx (f_height node))

let update_height tx node =
  let h =
    1
    + max
        (height tx (Int64.to_int (Txn.load tx (f_left node))))
        (height tx (Int64.to_int (Txn.load tx (f_right node))))
  in
  Txn.store tx (f_height node) (Int64.of_int h)

let balance_factor tx node =
  height tx (Int64.to_int (Txn.load tx (f_left node)))
  - height tx (Int64.to_int (Txn.load tx (f_right node)))

let rotate_right tx y =
  let x = Int64.to_int (Txn.load tx (f_left y)) in
  Txn.store tx (f_left y) (Txn.load tx (f_right x));
  Txn.store tx (f_right x) (Int64.of_int y);
  update_height tx y;
  update_height tx x;
  x

let rotate_left tx x =
  let y = Int64.to_int (Txn.load tx (f_right x)) in
  Txn.store tx (f_right x) (Txn.load tx (f_left y));
  Txn.store tx (f_left y) (Int64.of_int x);
  update_height tx x;
  update_height tx y;
  y

let rebalance tx node =
  update_height tx node;
  let bf = balance_factor tx node in
  if bf > 1 then begin
    let l = Int64.to_int (Txn.load tx (f_left node)) in
    if balance_factor tx l < 0 then
      Txn.store tx (f_left node) (Int64.of_int (rotate_left tx l));
    rotate_right tx node
  end
  else if bf < -1 then begin
    let r = Int64.to_int (Txn.load tx (f_right node)) in
    if balance_factor tx r > 0 then
      Txn.store tx (f_right node) (Int64.of_int (rotate_right tx r));
    rotate_left tx node
  end
  else node

let new_node tx t key value =
  let node = Txn.alloc tx 40 ~slot:(scratch_addr t) in
  Txn.store tx (f_left node) 0L;
  Txn.store tx (f_right node) 0L;
  Txn.store tx (f_height node) 1L;
  Txn.store tx (f_key node) key;
  ignore (Blob.alloc tx ~slot:(f_value node) value);
  Txn.store tx (scratch_addr t) 0L;
  node

let put tx t key value =
  let rec ins node =
    if node = 0 then new_node tx t key value
    else begin
      let k = Txn.load tx (f_key node) in
      if key < k then begin
        let l = ins (Int64.to_int (Txn.load tx (f_left node))) in
        Txn.store tx (f_left node) (Int64.of_int l);
        rebalance tx node
      end
      else if key > k then begin
        let r = ins (Int64.to_int (Txn.load tx (f_right node))) in
        Txn.store tx (f_right node) (Int64.of_int r);
        rebalance tx node
      end
      else begin
        Blob.free tx ~slot:(f_value node);
        ignore (Blob.alloc tx ~slot:(f_value node) value);
        node
      end
    end
  in
  let before = Txn.load tx (count_addr t) in
  let r0 = Int64.to_int (Txn.load tx (root_addr t)) in
  let had = ref false in
  let rec mem node =
    node <> 0
    &&
    let k = Txn.load tx (f_key node) in
    if key < k then mem (Int64.to_int (Txn.load tx (f_left node)))
    else if key > k then mem (Int64.to_int (Txn.load tx (f_right node)))
    else true
  in
  had := mem r0;
  Txn.store tx (root_addr t) (Int64.of_int (ins r0));
  if not !had then Txn.store tx (count_addr t) (Int64.add before 1L)

let find tx t key =
  let rec go node =
    if node = 0 then None
    else
      let k = Txn.load tx (f_key node) in
      if key < k then go (Int64.to_int (Txn.load tx (f_left node)))
      else if key > k then go (Int64.to_int (Txn.load tx (f_right node)))
      else Some (Blob.read tx (Int64.to_int (Txn.load tx (f_value node))))
  in
  go (Int64.to_int (Txn.load tx (root_addr t)))

let remove tx t key =
  let removed = ref false in
  let rec del node =
    if node = 0 then 0
    else begin
      let k = Txn.load tx (f_key node) in
      if key < k then begin
        let l = del (Int64.to_int (Txn.load tx (f_left node))) in
        Txn.store tx (f_left node) (Int64.of_int l);
        rebalance tx node
      end
      else if key > k then begin
        let r = del (Int64.to_int (Txn.load tx (f_right node))) in
        Txn.store tx (f_right node) (Int64.of_int r);
        rebalance tx node
      end
      else begin
        removed := true;
        let l = Int64.to_int (Txn.load tx (f_left node)) in
        let r = Int64.to_int (Txn.load tx (f_right node)) in
        if l = 0 || r = 0 then begin
          let child = if l = 0 then r else l in
          Blob.free tx ~slot:(f_value node);
          Txn.free_addr tx node;
          child
        end
        else begin
          (* Two children: move the in-order successor's key and value
             into this node, then delete the successor from the right
             subtree. *)
          let rec min_node n =
            let ln = Int64.to_int (Txn.load tx (f_left n)) in
            if ln = 0 then n else min_node ln
          in
          let succ = min_node r in
          let succ_key = Txn.load tx (f_key succ) in
          let succ_val = Txn.load tx (f_value succ) in
          (* steal the successor's blob: clear its field so the
             successor's deletion does not free it *)
          Blob.free tx ~slot:(f_value node);
          Txn.store tx (f_key node) succ_key;
          Txn.store tx (f_value node) succ_val;
          Txn.store tx (f_value succ) 0L;
          let rec del_min n =
            let ln = Int64.to_int (Txn.load tx (f_left n)) in
            if ln = 0 then begin
              let rn = Txn.load tx (f_right n) in
              Txn.free_addr tx n;
              Int64.to_int rn
            end
            else begin
              Txn.store tx (f_left n) (Int64.of_int (del_min ln));
              rebalance tx n
            end
          in
          let r' = del_min r in
          Txn.store tx (f_right node) (Int64.of_int r');
          rebalance tx node
        end
      end
    end
  in
  let r0 = Int64.to_int (Txn.load tx (root_addr t)) in
  let r1 = del r0 in
  Txn.store tx (root_addr t) (Int64.of_int r1);
  if !removed then
    Txn.store tx (count_addr t) (Int64.sub (Txn.load tx (count_addr t)) 1L);
  !removed

let length tx t = Int64.to_int (Txn.load tx (count_addr t))

let iter tx t f =
  let rec go node =
    if node <> 0 then begin
      go (Int64.to_int (Txn.load tx (f_left node)));
      f (Txn.load tx (f_key node))
        (Blob.read tx (Int64.to_int (Txn.load tx (f_value node))));
      go (Int64.to_int (Txn.load tx (f_right node)))
    end
  in
  go (Int64.to_int (Txn.load tx (root_addr t)))

let validate tx t =
  let rec check node lo hi =
    if node = 0 then 0
    else begin
      let k = Txn.load tx (f_key node) in
      (match lo with
      | Some l when k <= l -> failwith "Avl_tree: BST order violated (left)"
      | _ -> ());
      (match hi with
      | Some h when k >= h -> failwith "Avl_tree: BST order violated (right)"
      | _ -> ());
      let hl = check (Int64.to_int (Txn.load tx (f_left node))) lo (Some k) in
      let hr = check (Int64.to_int (Txn.load tx (f_right node))) (Some k) hi in
      if abs (hl - hr) > 1 then failwith "Avl_tree: balance factor out of range";
      let h = 1 + max hl hr in
      if h <> height tx node then failwith "Avl_tree: stale height";
      h
    end
  in
  ignore (check (Int64.to_int (Txn.load tx (root_addr t))) None None)
