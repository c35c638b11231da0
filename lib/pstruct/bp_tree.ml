module Txn = Mtm.Txn

let order = 16
let max_keys = order - 1  (* 15 *)

(* Header block: [magic] [count] [root node] [scratch].
   Node block (512-byte class):
   [kind (0 internal, 1 leaf)] [nkeys]
   leaf:     [next leaf], keys[15] @ +24, value blob ptrs[15] @ +144
   internal: keys[15] @ +16, children[16] @ +136

   Internal-node convention: child i covers keys k where
   keys[i-1] <= k < keys[i] (keys[-1] = -inf, keys[n] = +inf). *)

let magic = 0x4250_54L

type t = { hdr : int }

let count_addr t = t.hdr + 8
let root_addr t = t.hdr + 16
let scratch_addr t = t.hdr + 24

let f_kind n = n
let f_nkeys n = n + 8
let leaf_next n = n + 16
let leaf_key n i = n + 24 + (8 * i)
let leaf_val n i = n + 144 + (8 * i)
let int_key n i = n + 16 + (8 * i)
let int_child n i = n + 136 + (8 * i)

let node_bytes = 272

let get tx a = Int64.to_int (Txn.load tx a)
let is_leaf tx n = Txn.load tx (f_kind n) = 1L
let nkeys tx n = get tx (f_nkeys n)
let set_nkeys tx n k = Txn.store tx (f_nkeys n) (Int64.of_int k)

let alloc_node tx t ~leaf =
  let n = Txn.alloc tx node_bytes ~slot:(scratch_addr t) in
  Txn.store tx (scratch_addr t) 0L;
  Txn.store tx (f_kind n) (if leaf then 1L else 0L);
  Txn.store tx (f_nkeys n) 0L;
  if leaf then Txn.store tx (leaf_next n) 0L;
  n

let create tx ~slot =
  let hdr = Txn.alloc tx 32 ~slot in
  Txn.store tx hdr magic;
  Txn.store tx (hdr + 8) 0L;
  Txn.store tx (hdr + 24) 0L;
  let t = { hdr } in
  let leaf = alloc_node tx t ~leaf:true in
  Txn.store tx (root_addr t) (Int64.of_int leaf);
  t

let attach tx ~root =
  if Txn.load tx root <> magic then
    invalid_arg "Bp_tree.attach: no tree at this address";
  { hdr = root }

(* Index of the child covering [key]: first i with key < keys[i]. *)
let child_index tx node key =
  let n = nkeys tx node in
  let rec go i =
    if i >= n then n
    else if key < Txn.load tx (int_key node i) then i
    else go (i + 1)
  in
  go 0

(* Position of [key] in a leaf: first i with keys[i] >= key. *)
let leaf_pos tx node key =
  let n = nkeys tx node in
  let rec go i =
    if i >= n then i
    else if Txn.load tx (leaf_key node i) >= key then i
    else go (i + 1)
  in
  go 0

let rec find_leaf tx node key =
  if is_leaf tx node then node
  else find_leaf tx (get tx (int_child node (child_index tx node key))) key

let find tx t key =
  let leaf = find_leaf tx (get tx (root_addr t)) key in
  let pos = leaf_pos tx leaf key in
  if pos < nkeys tx leaf && Txn.load tx (leaf_key leaf pos) = key then
    Some (Blob.read tx (get tx (leaf_val leaf pos)))
  else None

(* Insert the separator [key] with right child [child] into internal
   node [node] at position [i], shifting tails right.  Caller
   guarantees room. *)
let insert_separator tx node i key child =
  let n = nkeys tx node in
  for j = n downto i + 1 do
    Txn.store tx (int_key node j) (Txn.load tx (int_key node (j - 1)));
    Txn.store tx (int_child node (j + 1)) (Txn.load tx (int_child node j))
  done;
  Txn.store tx (int_key node i) key;
  Txn.store tx (int_child node (i + 1)) (Int64.of_int child);
  set_nkeys tx node (n + 1)

(* Split the full child at slot [i] of [parent]; returns the promoted
   separator key. *)
let split_child tx t parent i =
  let child = get tx (int_child parent i) in
  if is_leaf tx child then begin
    let right = alloc_node tx t ~leaf:true in
    let split_at = 8 in
    let moved = max_keys - split_at in  (* 7 *)
    for j = 0 to moved - 1 do
      Txn.store tx (leaf_key right j) (Txn.load tx (leaf_key child (split_at + j)));
      Txn.store tx (leaf_val right j) (Txn.load tx (leaf_val child (split_at + j)))
    done;
    set_nkeys tx right moved;
    set_nkeys tx child split_at;
    Txn.store tx (leaf_next right) (Txn.load tx (leaf_next child));
    Txn.store tx (leaf_next child) (Int64.of_int right);
    let promoted = Txn.load tx (leaf_key right 0) in
    insert_separator tx parent i promoted right;
    promoted
  end
  else begin
    let right = alloc_node tx t ~leaf:false in
    let median = max_keys / 2 in  (* 7 *)
    let moved = max_keys - median - 1 in  (* 7 keys, 8 children *)
    for j = 0 to moved - 1 do
      Txn.store tx (int_key right j)
        (Txn.load tx (int_key child (median + 1 + j)))
    done;
    for j = 0 to moved do
      Txn.store tx (int_child right j)
        (Txn.load tx (int_child child (median + 1 + j)))
    done;
    set_nkeys tx right moved;
    set_nkeys tx child median;
    let promoted = Txn.load tx (int_key child median) in
    insert_separator tx parent i promoted right;
    promoted
  end

let put tx t key value =
  (* Grow the root first if full. *)
  let r = get tx (root_addr t) in
  if nkeys tx r = max_keys then begin
    let new_root = alloc_node tx t ~leaf:false in
    Txn.store tx (int_child new_root 0) (Int64.of_int r);
    Txn.store tx (root_addr t) (Int64.of_int new_root);
    ignore (split_child tx t new_root 0)
  end;
  (* Descend, splitting full children proactively. *)
  let node = ref (get tx (root_addr t)) in
  while not (is_leaf tx !node) do
    let i = child_index tx !node key in
    let child = get tx (int_child !node i) in
    if nkeys tx child = max_keys then begin
      let promoted = split_child tx t !node i in
      let i = if key >= promoted then i + 1 else i in
      node := get tx (int_child !node i)
    end
    else node := child
  done;
  let leaf = !node in
  let pos = leaf_pos tx leaf key in
  if pos < nkeys tx leaf && Txn.load tx (leaf_key leaf pos) = key then begin
    Blob.free tx ~slot:(leaf_val leaf pos);
    ignore (Blob.alloc tx ~slot:(leaf_val leaf pos) value)
  end
  else begin
    let n = nkeys tx leaf in
    for j = n downto pos + 1 do
      Txn.store tx (leaf_key leaf j) (Txn.load tx (leaf_key leaf (j - 1)));
      Txn.store tx (leaf_val leaf j) (Txn.load tx (leaf_val leaf (j - 1)))
    done;
    Txn.store tx (leaf_key leaf pos) key;
    Txn.store tx (leaf_val leaf pos) 0L;
    ignore (Blob.alloc tx ~slot:(leaf_val leaf pos) value);
    set_nkeys tx leaf (n + 1);
    Txn.store tx (count_addr t) (Int64.add (Txn.load tx (count_addr t)) 1L)
  end

let remove tx t key =
  let leaf = find_leaf tx (get tx (root_addr t)) key in
  let pos = leaf_pos tx leaf key in
  if pos < nkeys tx leaf && Txn.load tx (leaf_key leaf pos) = key then begin
    Blob.free tx ~slot:(leaf_val leaf pos);
    let n = nkeys tx leaf in
    for j = pos to n - 2 do
      Txn.store tx (leaf_key leaf j) (Txn.load tx (leaf_key leaf (j + 1)));
      Txn.store tx (leaf_val leaf j) (Txn.load tx (leaf_val leaf (j + 1)))
    done;
    set_nkeys tx leaf (n - 1);
    Txn.store tx (count_addr t) (Int64.sub (Txn.load tx (count_addr t)) 1L);
    true
  end
  else false

let length tx t = Int64.to_int (Txn.load tx (count_addr t))

let rec leftmost tx node =
  if is_leaf tx node then node else leftmost tx (get tx (int_child node 0))

let iter tx t f =
  let rec walk leaf =
    if leaf <> 0 then begin
      for i = 0 to nkeys tx leaf - 1 do
        f (Txn.load tx (leaf_key leaf i))
          (Blob.read tx (get tx (leaf_val leaf i)))
      done;
      walk (get tx (leaf_next leaf))
    end
  in
  walk (leftmost tx (get tx (root_addr t)))

let range tx t ~lo ~hi =
  let acc = ref [] in
  let rec walk leaf =
    if leaf <> 0 then begin
      let stop = ref false in
      for i = 0 to nkeys tx leaf - 1 do
        let k = Txn.load tx (leaf_key leaf i) in
        if k > hi then stop := true
        else if k >= lo then
          acc := (k, Blob.read tx (get tx (leaf_val leaf i))) :: !acc
      done;
      if not !stop then walk (get tx (leaf_next leaf))
    end
  in
  walk (find_leaf tx (get tx (root_addr t)) lo);
  List.rev !acc

let validate tx t =
  let leaves = ref [] in
  let rec check node lo hi =
    let n = nkeys tx node in
    if n > max_keys then failwith "Bp_tree: node overfull";
    let keyaddr = if is_leaf tx node then leaf_key node else int_key node in
    for i = 0 to n - 1 do
      let k = Txn.load tx (keyaddr i) in
      (match lo with
      | Some l when k < l -> failwith "Bp_tree: key below range"
      | _ -> ());
      (match hi with
      | Some h when k >= h -> failwith "Bp_tree: key above range"
      | _ -> ());
      if i > 0 && Txn.load tx (keyaddr (i - 1)) >= k then
        failwith "Bp_tree: keys not strictly ascending"
    done;
    if is_leaf tx node then begin
      leaves := node :: !leaves;
      1
    end
    else begin
      if n = 0 then failwith "Bp_tree: empty internal node";
      let depth = ref None in
      for i = 0 to n do
        let clo = if i = 0 then lo else Some (Txn.load tx (int_key node (i - 1))) in
        let chi = if i = n then hi else Some (Txn.load tx (int_key node i)) in
        let d = check (get tx (int_child node i)) clo chi in
        match !depth with
        | None -> depth := Some d
        | Some d' when d <> d' -> failwith "Bp_tree: uneven leaf depth"
        | Some _ -> ()
      done;
      1 + Option.get !depth
    end
  in
  ignore (check (get tx (root_addr t)) None None);
  (* leaf chain visits exactly the leaves, left to right *)
  let chain = ref [] in
  let rec walk leaf =
    if leaf <> 0 then begin
      chain := leaf :: !chain;
      walk (get tx (leaf_next leaf))
    end
  in
  walk (leftmost tx (get tx (root_addr t)));
  if List.sort compare !chain <> List.sort compare !leaves then
    failwith "Bp_tree: leaf chain does not match tree leaves"
