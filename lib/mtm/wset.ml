(* Reusable open-addressed int-keyed write-set.

   The commit hot path needs an addr -> int64 map with zero steady-state
   allocation: keys live in a linear-probing int array (-1 = empty, so
   addresses must be non-negative — ours are), values live unboxed in a
   [Bytes] buffer (8 bytes per slot, read/written with the int64
   accessors, which never allocates a boxed [Int64]), and insertion
   order is kept in a dense array so undo rollback can replay
   newest-first and commit can sort a prefix for ascending write-back.
   [clear] resets in O(table size) array fills — no rehash, no frees —
   so a transaction attempt reuses its thread's tables without touching
   the allocator. *)

type t = {
  mutable mask : int;
  mutable keys : int array;  (* key, or -1 for empty *)
  mutable vals : Bytes.t;  (* 8 bytes per slot, unboxed int64 values *)
  mutable order : int array;  (* distinct keys, insertion order *)
  mutable used : int array;  (* table slot of [order.(i)]'s entry *)
  mutable n : int;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let create ?(initial = 64) () =
  let size = next_pow2 (max 16 initial) 16 in
  {
    mask = size - 1;
    keys = Array.make size (-1);
    vals = Bytes.create (size * 8);
    order = Array.make size 0;
    used = Array.make size 0;
    n = 0;
  }

let size t = t.n

(* O(entries), not O(table): one giant transaction (region boot, crash
   replay) grows the table for good, and a full [Array.fill] here would
   tax every later transaction with clearing thousands of empty
   slots. *)
let clear t =
  for i = 0 to t.n - 1 do
    t.keys.(t.used.(i)) <- -1
  done;
  t.n <- 0

let[@inline] hash t k = (k * 0x2545F4914F6CDD1D) lsr 1 land t.mask

(* Slot holding [k], or -1 when absent. *)
let[@inline] find_slot t k =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash t k) in
  let c = ref keys.(!i) in
  while !c <> k && !c <> -1 do
    i := (!i + 1) land mask;
    c := keys.(!i)
  done;
  if !c = k then !i else -1

let[@inline] value_at t slot = Bytes.get_int64_le t.vals (slot * 8)
let mem t k = find_slot t k >= 0

let grow t =
  let old_vals = t.vals and old_used = t.used in
  let size = 2 * Array.length t.keys in
  t.mask <- size - 1;
  t.keys <- Array.make size (-1);
  t.vals <- Bytes.create (size * 8);
  t.order <- Array.append t.order (Array.make (Array.length t.order) 0);
  t.used <- Array.make (Array.length t.order) 0;
  for i = 0 to t.n - 1 do
    let k = t.order.(i) in
    let mask = t.mask in
    let j = ref (hash t k) in
    while t.keys.(!j) <> -1 do
      j := (!j + 1) land mask
    done;
    t.keys.(!j) <- k;
    Bytes.set_int64_le t.vals (!j * 8)
      (Bytes.get_int64_le old_vals (old_used.(i) * 8));
    t.used.(i) <- !j
  done

let set t k v =
  if k < 0 then invalid_arg "Wset.set: negative key";
  let slot = find_slot t k in
  if slot >= 0 then Bytes.set_int64_le t.vals (slot * 8) v
  else begin
    if 2 * (t.n + 1) > Array.length t.keys then grow t;
    let mask = t.mask in
    let i = ref (hash t k) in
    while t.keys.(!i) <> -1 do
      i := (!i + 1) land mask
    done;
    t.keys.(!i) <- k;
    Bytes.set_int64_le t.vals (!i * 8) v;
    t.order.(t.n) <- k;
    t.used.(t.n) <- !i;
    t.n <- t.n + 1
  end

let key t i = t.order.(i)
let get t k = value_at t (find_slot t k)

let blit_value t slot dst off = Bytes.blit t.vals (slot * 8) dst off 8

let blit_keys t dst =
  Array.blit t.order 0 dst 0 t.n;
  t.n

(* In-place ascending sort of [a.(0 .. len-1)]: monomorphic int
   comparisons only (no polymorphic [compare]), quicksort on
   median-of-three pivots with an insertion-sort base case.  Write sets
   are small (tens of entries), so the base case does most of the
   work. *)
let[@inline] swap (a : int array) i j =
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

(* [swap] stays outside [qsort]: a local closure over [a] would be
   allocated at every partition step. *)
let sort_prefix (a : int array) ~len =
  let rec qsort lo hi =
    if hi - lo < 16 then
      for i = lo + 1 to hi do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) < a.(lo) then swap a mid lo;
      if a.(hi) < a.(lo) then swap a hi lo;
      if a.(hi) < a.(mid) then swap a hi mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < pivot do
          incr i
        done;
        while a.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap a !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
  in
  if len > 1 then qsort 0 (len - 1)
