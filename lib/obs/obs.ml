module Metrics = Metrics
module Trace = Trace
module Flight = Flight
module Txprof = Txprof
module Json = Json

type t = {
  metrics : Metrics.t;
  flight : Flight.t;
  mutable clock : unit -> int;
  mutable cur_tid : int;
}

let create ?(tracing = false) () =
  let flight = Flight.create () in
  if tracing then Flight.start_trace flight;
  { metrics = Metrics.create (); flight; clock = (fun () -> 0); cur_tid = 0 }

let tracing t = Flight.tracing t.flight
let enable_trace t = Flight.start_trace t.flight
let set_clock t f = t.clock <- f
let now t = t.clock ()
let set_tid t tid = t.cur_tid <- tid

(* Every emitter records once, into the ring: plain int stores, no
   simulated-time charge. *)

let complete t kind ~ts ~dur ~arg =
  Flight.record t.flight ~code:(Trace.kind_code kind) ~ts ~dur ~tid:t.cur_tid
    ~arg

let instant_at t kind ~ts ~arg = complete t kind ~ts ~dur:(-1) ~arg
let instant t kind ~arg = instant_at t kind ~ts:(t.clock ()) ~arg

let flow t ~phase ~id =
  Flight.record t.flight ~code:(Trace.flow_code phase) ~ts:(t.clock ())
    ~dur:(-1) ~tid:t.cur_tid ~arg:id

let flight_dump t =
  let buf = Buffer.create 8192 in
  let held = Flight.last t.flight Flight.flight_capacity in
  Printf.bprintf buf
    "flight recorder: last %d of %d events (oldest first, sim ns)\n"
    (List.length held) (Flight.total t.flight);
  Printf.bprintf buf "%12s %5s %-18s %12s %14s\n" "ts" "tid" "event" "dur"
    "arg";
  List.iter
    (fun (e : Flight.entry) ->
      Printf.bprintf buf "%12d %5d %-18s %12s %14d\n" e.ts e.tid
        (Trace.code_name e.code)
        (if e.dur < 0 then "-" else string_of_int e.dur)
        e.arg)
    held;
  Buffer.add_string buf "\nmetrics snapshot:\n";
  Buffer.add_string buf (Metrics.dump t.metrics);
  Buffer.contents buf
