let stored_words_for n = ((64 * n) + 62) / 63

let mask63 = 0x7fff_ffff_ffff_ffffL

module Packer = struct
  type t = {
    emit : int64 -> unit;
    mutable acc : int64;  (* low [nbits] bits are pending stream bits *)
    mutable nbits : int;  (* 0..62 between pushes *)
  }

  let create ~emit = { emit; acc = 0L; nbits = 0 }

  let push t w =
    (* Invariant: 0 <= t.nbits <= 62.  The combined nbits + 64 bits
       always yield at least one full 63-bit chunk. *)
    if t.nbits = 0 then begin
      t.emit (Int64.logand w mask63);
      t.acc <- Int64.shift_right_logical w 63;
      t.nbits <- 1
    end
    else begin
      let chunk =
        Int64.logand (Int64.logor t.acc (Int64.shift_left w t.nbits)) mask63
      in
      t.emit chunk;
      (* 63 - nbits bits of [w] were consumed; nbits + 1 remain. *)
      t.acc <- Int64.shift_right_logical w (63 - t.nbits);
      t.nbits <- t.nbits + 1;
      if t.nbits = 63 then begin
        t.emit (Int64.logand t.acc mask63);
        t.acc <- 0L;
        t.nbits <- 0
      end
    end

  let flush t =
    if t.nbits > 0 then begin
      t.emit (Int64.logand t.acc mask63);
      t.acc <- 0L;
      t.nbits <- 0
    end
end

module Unpacker = struct
  type t = {
    mutable acc : int64;  (* low [nbits] pending bits *)
    mutable nbits : int;  (* 0..63 between operations *)
    mutable carry : int64;  (* bits overflowing past 63 in acc *)
    mutable carry_bits : int;
  }

  let create () = { acc = 0L; nbits = 0; carry = 0L; carry_bits = 0 }

  let feed t chunk =
    let chunk = Int64.logand chunk mask63 in
    if t.nbits = 0 then begin
      t.acc <- chunk;
      t.nbits <- 63
    end
    else begin
      (* nbits <= 63; appending 63 more may overflow into carry. *)
      if t.nbits = 64 then invalid_arg "Bitstream.Unpacker.feed: take first";
      t.acc <- Int64.logor t.acc (Int64.shift_left chunk t.nbits);
      let used = 64 - t.nbits in
      if used < 63 then begin
        t.carry <- Int64.shift_right_logical chunk used;
        t.carry_bits <- 63 - used
      end;
      t.nbits <- min 64 (t.nbits + 63)
    end

  let take t =
    if t.nbits < 64 then None
    else begin
      let w = t.acc in
      t.acc <- t.carry;
      t.nbits <- t.carry_bits;
      t.carry <- 0L;
      t.carry_bits <- 0;
      Some w
    end
end
