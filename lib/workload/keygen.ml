type t = Random.State.t

let create ?(seed = 0xbeef) () = Random.State.make [| seed |]

let uniform_int t n = Random.State.int t n

let seq_key i = Bytes.of_string (Printf.sprintf "k%08d" i)

let value t n =
  Bytes.init n (fun _ -> Char.chr (32 + Random.State.int t 95))

module Zipf = struct
  type table = float array
  type dist = { rng : Random.State.t; cdf : table }

  (* The weights go into [cdf] first and are summed left to right,
     then each is replaced by the running sum of its share: the same
     operations in the same order as summing a separate weights array,
     so the floats are the same. *)
  let table ~n ~theta =
    if n <= 0 then invalid_arg "Zipf.table";
    let cdf = Array.make n 0.0 in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      let w = 1.0 /. Float.pow (float_of_int (i + 1)) theta in
      cdf.(i) <- w;
      total := !total +. w
    done;
    let total = !total and acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (cdf.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(n - 1) <- 1.0;
    cdf

  let sampler rng cdf = { rng; cdf }
  let make rng ~n ~theta = sampler rng (table ~n ~theta)

  let draw d =
    let u = Random.State.float d.rng 1.0 in
    (* binary search for the first cdf entry >= u *)
    let lo = ref 0 and hi = ref (Array.length d.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if d.cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
end
