type counter = { c_name : string; mutable count : int }

type gauge = { g_name : string; mutable sample : unit -> int }

type histogram = {
  h_name : string;
  sub_bits : int;
  sub : int;  (* 1 lsl sub_bits *)
  buckets : int array;
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; count = 0 } in
      Hashtbl.replace t.counters name c;
      c

let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count
let counter_name c = c.c_name

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; sample = (fun () -> 0) } in
      Hashtbl.replace t.gauges name g;
      g

let set_gauge g f = g.sample <- f
let gauge_value g = g.sample ()
let gauge_name g = g.g_name

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let default_sub_bits = 9

let make_histogram ?(sub_bits = default_sub_bits) name =
  if sub_bits < 1 || sub_bits > 20 then
    invalid_arg "Metrics.make_histogram: sub_bits";
  let sub = 1 lsl sub_bits in
  {
    h_name = name;
    sub_bits;
    sub;
    (* one linear segment below [sub], then one [sub]-wide segment per
       power of two up to bit 62 *)
    buckets = Array.make ((64 - sub_bits) * sub) 0;
    n = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

let histogram ?sub_bits t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = make_histogram ?sub_bits name in
      Hashtbl.replace t.histograms name h;
      h

let msb v =
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then (r := !r + 32; v := !v lsr 32);
  if !v lsr 16 <> 0 then (r := !r + 16; v := !v lsr 16);
  if !v lsr 8 <> 0 then (r := !r + 8; v := !v lsr 8);
  if !v lsr 4 <> 0 then (r := !r + 4; v := !v lsr 4);
  if !v lsr 2 <> 0 then (r := !r + 2; v := !v lsr 2);
  if !v lsr 1 <> 0 then Stdlib.incr r;
  !r

let index h v =
  if v < h.sub then v
  else
    let m = msb v in
    ((m - h.sub_bits + 1) * h.sub) + ((v lsr (m - h.sub_bits)) - h.sub)

(* Lower bound of bucket [i]: the smallest value that maps there (the
   inverse of {!index}; exact for unit-width buckets). *)
let value_of_index h i =
  if i < h.sub then i
  else
    let m = (i / h.sub) - 1 + h.sub_bits in
    (h.sub + (i mod h.sub)) lsl (m - h.sub_bits)

let record h v =
  let v = if v < 0 then 0 else v in
  h.buckets.(index h v) <- h.buckets.(index h v) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let hcount h = h.n
let hsum h = h.sum
let hmean h = if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n
let hmin h = if h.n = 0 then 0 else h.min_v
let hmax h = h.max_v
let histogram_name h = h.h_name
let nbuckets h = Array.length h.buckets

let hreset h =
  Array.fill h.buckets 0 (Array.length h.buckets) 0;
  h.n <- 0;
  h.sum <- 0;
  h.min_v <- max_int;
  h.max_v <- 0

let percentile h p =
  if h.n = 0 then 0
  else begin
    let rank =
      int_of_float (Float.round (p /. 100.0 *. float_of_int (h.n - 1)))
    in
    let rank = max 0 (min (h.n - 1) rank) in
    let acc = ref 0 and i = ref 0 and result = ref h.max_v in
    (try
       while !i < Array.length h.buckets do
         acc := !acc + h.buckets.(!i);
         if !acc > rank then begin
           result := value_of_index h !i;
           raise Exit
         end;
         Stdlib.incr i
       done
     with Exit -> ());
    (* quantization cannot escape the observed range *)
    max (hmin h) (min h.max_v !result)
  end

(* ------------------------------------------------------------------ *)
(* Dumping                                                             *)

let sorted_values tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let iter_counters t f =
  sorted_values t.counters
  |> List.sort (fun a b -> compare a.c_name b.c_name)
  |> List.iter f

let iter_gauges t f =
  sorted_values t.gauges
  |> List.sort (fun a b -> compare a.g_name b.g_name)
  |> List.iter f

let iter_histograms t f =
  sorted_values t.histograms
  |> List.sort (fun a b -> compare a.h_name b.h_name)
  |> List.iter f

let dump t =
  let buf = Buffer.create 1024 in
  iter_counters t (fun c ->
      Buffer.add_string buf (Printf.sprintf "%-36s %12d\n" c.c_name c.count));
  iter_gauges t (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "%-36s %12d (gauge)\n" g.g_name (g.sample ())));
  iter_histograms t (fun h ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-36s n=%-8d mean=%-10.1f min=%-8d p50=%-8d p99=%-8d max=%d\n"
           h.h_name h.n (hmean h) (hmin h) (percentile h 50.0)
           (percentile h 99.0) (hmax h)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)

(* Gauges sample their subject here: the document is the point-in-time
   view, everything else in it is cumulative. *)
let to_json t =
  let buf = Buffer.create 4096 in
  (* one member per line; an empty section stays "{}" *)
  let section name iter member =
    Printf.bprintf buf "  %s: {" (Json.string name);
    let first = ref true in
    iter t (fun x ->
        Buffer.add_string buf (if !first then "\n    " else ",\n    ");
        first := false;
        member x);
    Buffer.add_string buf (if !first then "}" else "\n  }")
  in
  Buffer.add_string buf "{\n";
  section "counters" iter_counters (fun c ->
      Printf.bprintf buf "%s: %d" (Json.string c.c_name) c.count);
  Buffer.add_string buf ",\n";
  section "gauges" iter_gauges (fun g ->
      Printf.bprintf buf "%s: %d" (Json.string g.g_name) (g.sample ()));
  Buffer.add_string buf ",\n";
  section "histograms" iter_histograms (fun h ->
      Printf.bprintf buf
        "%s: {\"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"mean\": \
         %.6g, \"p50\": %d, \"p90\": %d, \"p99\": %d, \"p999\": %d}"
        (Json.string h.h_name) h.n h.sum (hmin h) (hmax h) (hmean h)
        (percentile h 50.0) (percentile h 90.0) (percentile h 99.0)
        (percentile h 99.9));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
