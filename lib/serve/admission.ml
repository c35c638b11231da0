type reason = Queue_full | Log_pressure

type config = { queue_cap : int; log_high_pct : int; boost_pct : int }

(* All gates off: every request is admitted and a full RAWL is
   discovered only by the producer wedging inline in the append path —
   the paper's figure-6 stall regime, kept as the measurable baseline. *)
let legacy = { queue_cap = 0; log_high_pct = 0; boost_pct = 0 }
let default = { queue_cap = 64; log_high_pct = 85; boost_pct = 60 }

type t = {
  cfg : config;
  mutable admitted : int;
  mutable shed_queue : int;
  mutable shed_log : int;
  mutable race : Race_api.hooks option;
      (* The shed/admit tallies are shared single-word counters bumped
         from every dispatcher fiber: each decision is one rmw on its
         counter (DESIGN.md section 18).  The queue-depth/occupancy
         inputs are sampled by the caller, which carries its own
         annotations. *)
}

let make cfg =
  if cfg.queue_cap < 0 then invalid_arg "Admission.make: queue_cap < 0";
  if cfg.log_high_pct < 0 || cfg.log_high_pct > 100 then
    invalid_arg "Admission.make: log_high_pct outside [0, 100]";
  if cfg.boost_pct < 0 || cfg.boost_pct > 100 then
    invalid_arg "Admission.make: boost_pct outside [0, 100]";
  { cfg; admitted = 0; shed_queue = 0; shed_log = 0; race = None }

let set_race t h = t.race <- h

let[@inline] race_rmw t label =
  match t.race with None -> () | Some hk -> hk.Race_api.rmw label

let over pct ~used ~cap = pct > 0 && used * 100 >= pct * cap

let admit_enqueue t ~queue_len =
  if t.cfg.queue_cap > 0 && queue_len >= t.cfg.queue_cap then begin
    race_rmw t "serve.admission.shed_queue";
    t.shed_queue <- t.shed_queue + 1;
    Error Queue_full
  end
  else begin
    race_rmw t "serve.admission.admitted";
    t.admitted <- t.admitted + 1;
    Ok ()
  end

let admit_dispatch t ~used ~cap =
  if over t.cfg.log_high_pct ~used ~cap then begin
    race_rmw t "serve.admission.shed_log";
    t.shed_log <- t.shed_log + 1;
    Error Log_pressure
  end
  else Ok ()

let should_boost t ~used ~cap = over t.cfg.boost_pct ~used ~cap
let admitted t = t.admitted
let shed_queue t = t.shed_queue
let shed_log t = t.shed_log
let shed t = t.shed_queue + t.shed_log
