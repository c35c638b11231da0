type kind = Wt_post | Wc_drain | Cache_writeback | Fence

let kind_name = function
  | Wt_post -> "wt_post"
  | Wc_drain -> "wc_drain"
  | Cache_writeback -> "cache_writeback"
  | Fence -> "fence"

exception Simulated_crash of { op : int; kind : kind }

type t = {
  mutable op : int;
  mutable target : int;  (* -1 = disarmed *)
  mutable crashed : bool;
}

let create () = { op = 0; target = -1; crashed = false }

let count t = t.op
let target t = if t.target < 0 then None else Some t.target
let crashed t = t.crashed

let arm t ~at =
  if at < 1 then invalid_arg "Crashpoint.arm: op indices start at 1";
  t.target <- at;
  t.crashed <- false

let disarm t =
  t.target <- -1;
  t.crashed <- false

let tick t kind =
  (* Once the crash has fired the machine is dead: any further
     persistence operation (e.g. from an exception handler trying to
     roll back) re-raises, so nothing can leak to the device after the
     crash point. *)
  if t.crashed then
    raise (Simulated_crash { op = t.op; kind })
  else begin
    t.op <- t.op + 1;
    if t.op = t.target then begin
      t.crashed <- true;
      raise (Simulated_crash { op = t.op; kind })
    end
  end
