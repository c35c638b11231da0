(** Crash injection: the failure model of paper section 2.

    On a system failure only data resident in SCM survives; in-flight
    memory operations may or may not have completed, at 64-bit
    atomicity.  [inject] decides the fate of every piece of volatile
    state — dirty cache lines and pending write-combined stores — and
    then discards it, leaving the device holding exactly what a real
    power loss would leave.

    After [inject], all environments over the machine are dead; recovery
    code must build fresh ones (usually via {!Scm_device.save_image} /
    {!Scm_device.load_image} to also prove nothing volatile leaked). *)

type cache_policy =
  | Drop_dirty  (** No dirty line made it out: the common case. *)
  | Evict_random of float
      (** Each dirty line independently reached SCM with the given
          probability before the crash — models ongoing background
          eviction.  Correct programs must tolerate any subset. *)
  | Writeback_all
      (** Every dirty line reached SCM (an orderly-shutdown bound). *)

type wc_policy =
  | Wc_drop  (** No pending streaming store completed. *)
  | Wc_random_subset
      (** Each pending streaming store independently completed or not,
          in arbitrary order — the torn-append hazard of section 4.4. *)
  | Wc_apply_all  (** All pending streaming stores completed. *)

type policy = { cache : cache_policy; wc : wc_policy }

val inject : ?policy:policy -> Env.machine -> unit
(** Apply the policy (by default the adversarial [Evict_random 0.3] +
    [Wc_random_subset]) and wipe all volatile state.  Disarms the
    machine's crash point first, so injection itself cannot trigger a
    nested simulated crash. *)
