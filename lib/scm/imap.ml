(* Open-addressed integer-keyed maps for simulator hot paths.

   [Hashtbl] on a per-memory-access path costs a hash, bucket chasing,
   and a [Some] allocation per hit; these maps are linear-probing
   arrays with -1 as the empty-key sentinel (keys must be
   non-negative) and answer misses with a sentinel instead of an
   option.  Load factor is kept under 1/2 by doubling.  Deletion uses
   backward-shift, so no tombstones accumulate. *)

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)
let[@inline] mix k mask = (k * 0x2545F4914F6CDD1D) lsr 1 land mask

(* int -> int; absent keys read as -1 (store only values >= 0, or any
   value distinct from -1 the caller never confuses with a miss). *)
module Int = struct
  type t = {
    mutable mask : int;
    mutable keys : int array;
    mutable vals : int array;
    mutable n : int;
  }

  let create ?(initial = 64) () =
    let size = next_pow2 (max 16 initial) 16 in
    {
      mask = size - 1;
      keys = Array.make size (-1);
      vals = Array.make size 0;
      n = 0;
    }

  let[@inline] find t k =
    let keys = t.keys and mask = t.mask in
    let i = ref (mix k mask) in
    let c = ref keys.(!i) in
    while !c <> k && !c <> -1 do
      i := (!i + 1) land mask;
      c := keys.(!i)
    done;
    if !c = k then t.vals.(!i) else -1

  let grow t =
    let old_keys = t.keys and old_vals = t.vals in
    let size = 2 * Array.length old_keys in
    t.mask <- size - 1;
    t.keys <- Array.make size (-1);
    t.vals <- Array.make size 0;
    Array.iteri
      (fun i k ->
        if k <> -1 then begin
          let j = ref (mix k t.mask) in
          while t.keys.(!j) <> -1 do
            j := (!j + 1) land t.mask
          done;
          t.keys.(!j) <- k;
          t.vals.(!j) <- old_vals.(i)
        end)
      old_keys

  let set t k v =
    if k < 0 then invalid_arg "Imap.Int.set: negative key";
    let keys = t.keys and mask = t.mask in
    let i = ref (mix k mask) in
    let c = ref keys.(!i) in
    while !c <> k && !c <> -1 do
      i := (!i + 1) land mask;
      c := keys.(!i)
    done;
    if !c = k then t.vals.(!i) <- v
    else begin
      if 2 * (t.n + 1) > Array.length t.keys then begin
        grow t;
        let j = ref (mix k t.mask) in
        while t.keys.(!j) <> -1 do
          j := (!j + 1) land t.mask
        done;
        i := !j
      end;
      t.keys.(!i) <- k;
      t.vals.(!i) <- v;
      t.n <- t.n + 1
    end

  let remove t k =
    let mask = t.mask in
    let i = ref (mix k mask) in
    let c = ref t.keys.(!i) in
    while !c <> k && !c <> -1 do
      i := (!i + 1) land mask;
      c := t.keys.(!i)
    done;
    if !c = k then begin
      t.n <- t.n - 1;
      let hole = ref !i in
      t.keys.(!hole) <- -1;
      let j = ref ((!i + 1) land mask) in
      while t.keys.(!j) <> -1 do
        let home = mix t.keys.(!j) mask in
        if (!j - home) land mask >= (!j - !hole) land mask then begin
          t.keys.(!hole) <- t.keys.(!j);
          t.vals.(!hole) <- t.vals.(!j);
          t.keys.(!j) <- -1;
          hole := !j
        end;
        j := (!j + 1) land mask
      done
    end
end
