module Txn = Mtm.Txn

(* Header block: [magic | payload_bytes] [count] [root ptr] [scratch].
   Node block: [left] [right] [parent] [color (0 red, 1 black) | key?]
   kept as separate words for clarity: [left][right][parent][color][key]
   then the inline payload.  40 bytes of fields + 88-byte default
   payload = 128-byte blocks, as in the paper's table 5. *)

let magic = 0x5242L
let default_payload_bytes = 88

type t = { hdr : int; payload : int }

let payload_bytes t = t.payload

let f_left n = n
let f_right n = n + 8
let f_parent n = n + 16
let f_color n = n + 24
let f_key n = n + 32
let f_payload n = n + 40

let count_addr t = t.hdr + 8
let root_addr t = t.hdr + 16
let scratch_addr t = t.hdr + 24

let red = 0L
let black = 1L

let create tx ~slot ?(payload_bytes = default_payload_bytes) () =
  let hdr = Txn.alloc tx 32 ~slot in
  Txn.store tx hdr
    (Int64.logor (Int64.shift_left magic 48) (Int64.of_int payload_bytes));
  Txn.store tx (hdr + 8) 0L;
  Txn.store tx (hdr + 16) 0L;
  Txn.store tx (hdr + 24) 0L;
  { hdr; payload = payload_bytes }

let get tx a = Int64.to_int (Txn.load tx a)
let color tx n = if n = 0 then black else Txn.load tx (f_color n)

let set_payload tx t node payload =
  let buf = Bytes.make t.payload '\000' in
  Bytes.blit payload 0 buf 0 (min (Bytes.length payload) t.payload);
  Txn.write_bytes tx (f_payload node) buf

(* CLRS rotations, updating the root pointer through the header. *)
let rotate_left tx t x =
  let y = get tx (f_right x) in
  let yl = get tx (f_left y) in
  Txn.store tx (f_right x) (Int64.of_int yl);
  if yl <> 0 then Txn.store tx (f_parent yl) (Int64.of_int x);
  let xp = get tx (f_parent x) in
  Txn.store tx (f_parent y) (Int64.of_int xp);
  if xp = 0 then Txn.store tx (root_addr t) (Int64.of_int y)
  else if get tx (f_left xp) = x then Txn.store tx (f_left xp) (Int64.of_int y)
  else Txn.store tx (f_right xp) (Int64.of_int y);
  Txn.store tx (f_left y) (Int64.of_int x);
  Txn.store tx (f_parent x) (Int64.of_int y)

let rotate_right tx t x =
  let y = get tx (f_left x) in
  let yr = get tx (f_right y) in
  Txn.store tx (f_left x) (Int64.of_int yr);
  if yr <> 0 then Txn.store tx (f_parent yr) (Int64.of_int x);
  let xp = get tx (f_parent x) in
  Txn.store tx (f_parent y) (Int64.of_int xp);
  if xp = 0 then Txn.store tx (root_addr t) (Int64.of_int y)
  else if get tx (f_right xp) = x then Txn.store tx (f_right xp) (Int64.of_int y)
  else Txn.store tx (f_left xp) (Int64.of_int y);
  Txn.store tx (f_right y) (Int64.of_int x);
  Txn.store tx (f_parent x) (Int64.of_int y)

let find_node tx t key =
  let rec go n =
    if n = 0 then 0
    else
      let k = Txn.load tx (f_key n) in
      if key < k then go (get tx (f_left n))
      else if key > k then go (get tx (f_right n))
      else n
  in
  go (get tx (root_addr t))

let insert_fixup tx t z0 =
  let z = ref z0 in
  let continue = ref true in
  while !continue do
    let zp = get tx (f_parent !z) in
    if zp = 0 || color tx zp = black then continue := false
    else begin
      let zpp = get tx (f_parent zp) in
      if zp = get tx (f_left zpp) then begin
        let uncle = get tx (f_right zpp) in
        if color tx uncle = red then begin
          Txn.store tx (f_color zp) black;
          Txn.store tx (f_color uncle) black;
          Txn.store tx (f_color zpp) red;
          z := zpp
        end
        else begin
          if !z = get tx (f_right zp) then begin
            z := zp;
            rotate_left tx t !z
          end;
          let zp = get tx (f_parent !z) in
          let zpp = get tx (f_parent zp) in
          Txn.store tx (f_color zp) black;
          Txn.store tx (f_color zpp) red;
          rotate_right tx t zpp
        end
      end
      else begin
        let uncle = get tx (f_left zpp) in
        if color tx uncle = red then begin
          Txn.store tx (f_color zp) black;
          Txn.store tx (f_color uncle) black;
          Txn.store tx (f_color zpp) red;
          z := zpp
        end
        else begin
          if !z = get tx (f_left zp) then begin
            z := zp;
            rotate_right tx t !z
          end;
          let zp = get tx (f_parent !z) in
          let zpp = get tx (f_parent zp) in
          Txn.store tx (f_color zp) black;
          Txn.store tx (f_color zpp) red;
          rotate_left tx t zpp
        end
      end
    end
  done;
  let r = get tx (root_addr t) in
  Txn.store tx (f_color r) black

let put tx t key payload =
  match find_node tx t key with
  | n when n <> 0 -> set_payload tx t n payload
  | _ ->
      let node = Txn.alloc tx (40 + t.payload) ~slot:(scratch_addr t) in
      Txn.store tx (scratch_addr t) 0L;
      Txn.store tx (f_left node) 0L;
      Txn.store tx (f_right node) 0L;
      Txn.store tx (f_color node) red;
      Txn.store tx (f_key node) key;
      set_payload tx t node payload;
      (* BST insert *)
      let rec descend n parent =
        if n = 0 then parent
        else if key < Txn.load tx (f_key n) then descend (get tx (f_left n)) n
        else descend (get tx (f_right n)) n
      in
      let parent = descend (get tx (root_addr t)) 0 in
      Txn.store tx (f_parent node) (Int64.of_int parent);
      if parent = 0 then Txn.store tx (root_addr t) (Int64.of_int node)
      else if key < Txn.load tx (f_key parent) then
        Txn.store tx (f_left parent) (Int64.of_int node)
      else Txn.store tx (f_right parent) (Int64.of_int node);
      insert_fixup tx t node;
      Txn.store tx (count_addr t)
        (Int64.add (Txn.load tx (count_addr t)) 1L)

let find tx t key =
  match find_node tx t key with
  | 0 -> None
  | n -> Some (Txn.read_bytes tx (f_payload n) t.payload)

(* CLRS delete.  The classic algorithm uses a nil sentinel whose parent
   field the fixup relies on; we track the "fixup position" as a node
   plus its parent explicitly instead. *)
let transplant tx t u v =
  let up = get tx (f_parent u) in
  if up = 0 then Txn.store tx (root_addr t) (Int64.of_int v)
  else if get tx (f_left up) = u then Txn.store tx (f_left up) (Int64.of_int v)
  else Txn.store tx (f_right up) (Int64.of_int v);
  if v <> 0 then Txn.store tx (f_parent v) (Int64.of_int up)

let delete_fixup tx t x0 xparent0 =
  let x = ref x0 and xparent = ref xparent0 in
  let continue = ref true in
  while !continue do
    if !x = get tx (root_addr t) || color tx !x = red then continue := false
    else begin
      let p = !xparent in
      if !x = get tx (f_left p) then begin
        let w = ref (get tx (f_right p)) in
        if color tx !w = red then begin
          Txn.store tx (f_color !w) black;
          Txn.store tx (f_color p) red;
          rotate_left tx t p;
          w := get tx (f_right p)
        end;
        if
          color tx (get tx (f_left !w)) = black
          && color tx (get tx (f_right !w)) = black
        then begin
          Txn.store tx (f_color !w) red;
          x := p;
          xparent := get tx (f_parent p)
        end
        else begin
          if color tx (get tx (f_right !w)) = black then begin
            let wl = get tx (f_left !w) in
            if wl <> 0 then Txn.store tx (f_color wl) black;
            Txn.store tx (f_color !w) red;
            rotate_right tx t !w;
            w := get tx (f_right p)
          end;
          Txn.store tx (f_color !w) (color tx p);
          Txn.store tx (f_color p) black;
          let wr = get tx (f_right !w) in
          if wr <> 0 then Txn.store tx (f_color wr) black;
          rotate_left tx t p;
          x := get tx (root_addr t);
          continue := false
        end
      end
      else begin
        let w = ref (get tx (f_left p)) in
        if color tx !w = red then begin
          Txn.store tx (f_color !w) black;
          Txn.store tx (f_color p) red;
          rotate_right tx t p;
          w := get tx (f_left p)
        end;
        if
          color tx (get tx (f_left !w)) = black
          && color tx (get tx (f_right !w)) = black
        then begin
          Txn.store tx (f_color !w) red;
          x := p;
          xparent := get tx (f_parent p)
        end
        else begin
          if color tx (get tx (f_left !w)) = black then begin
            let wr = get tx (f_right !w) in
            if wr <> 0 then Txn.store tx (f_color wr) black;
            Txn.store tx (f_color !w) red;
            rotate_left tx t !w;
            w := get tx (f_left p)
          end;
          Txn.store tx (f_color !w) (color tx p);
          Txn.store tx (f_color p) black;
          let wl = get tx (f_left !w) in
          if wl <> 0 then Txn.store tx (f_color wl) black;
          rotate_right tx t p;
          x := get tx (root_addr t);
          continue := false
        end
      end
    end
  done;
  if !x <> 0 then Txn.store tx (f_color !x) black

let remove tx t key =
  let z = find_node tx t key in
  if z = 0 then false
  else begin
    let rec minimum n =
      let l = get tx (f_left n) in
      if l = 0 then n else minimum l
    in
    let y_original_color = ref (color tx z) in
    let x = ref 0 and xparent = ref 0 in
    let zl = get tx (f_left z) and zr = get tx (f_right z) in
    if zl = 0 then begin
      x := zr;
      xparent := get tx (f_parent z);
      transplant tx t z zr
    end
    else if zr = 0 then begin
      x := zl;
      xparent := get tx (f_parent z);
      transplant tx t z zl
    end
    else begin
      let y = minimum zr in
      y_original_color := color tx y;
      x := get tx (f_right y);
      if get tx (f_parent y) = z then xparent := y
      else begin
        xparent := get tx (f_parent y);
        transplant tx t y (get tx (f_right y));
        Txn.store tx (f_right y) (Int64.of_int (get tx (f_right z)));
        Txn.store tx (f_parent (get tx (f_right y))) (Int64.of_int y)
      end;
      transplant tx t z y;
      Txn.store tx (f_left y) (Int64.of_int (get tx (f_left z)));
      let yl = get tx (f_left y) in
      if yl <> 0 then Txn.store tx (f_parent yl) (Int64.of_int y);
      Txn.store tx (f_color y) (color tx z)
    end;
    Txn.free_addr tx z;
    if !y_original_color = black then delete_fixup tx t !x !xparent;
    Txn.store tx (count_addr t) (Int64.sub (Txn.load tx (count_addr t)) 1L);
    true
  end

let length tx t = Int64.to_int (Txn.load tx (count_addr t))

let iter tx t f =
  let rec go n =
    if n <> 0 then begin
      go (get tx (f_left n));
      f (Txn.load tx (f_key n)) (Txn.read_bytes tx (f_payload n) t.payload);
      go (get tx (f_right n))
    end
  in
  go (get tx (root_addr t))

let validate tx t =
  let r = get tx (root_addr t) in
  if r <> 0 && color tx r <> black then failwith "Rb_tree: red root";
  let rec check n lo hi =
    if n = 0 then 1
    else begin
      let k = Txn.load tx (f_key n) in
      (match lo with
      | Some l when k <= l -> failwith "Rb_tree: BST order violated"
      | _ -> ());
      (match hi with
      | Some h when k >= h -> failwith "Rb_tree: BST order violated"
      | _ -> ());
      let l = get tx (f_left n) and rt = get tx (f_right n) in
      if color tx n = red && (color tx l = red || color tx rt = red) then
        failwith "Rb_tree: red node with red child";
      if l <> 0 && get tx (f_parent l) <> n then
        failwith "Rb_tree: bad parent pointer";
      if rt <> 0 && get tx (f_parent rt) <> n then
        failwith "Rb_tree: bad parent pointer";
      let bl = check l lo (Some k) in
      let br = check rt (Some k) hi in
      if bl <> br then failwith "Rb_tree: unequal black heights";
      bl + (if color tx n = black then 1 else 0)
    end
  in
  ignore (check r None None)
