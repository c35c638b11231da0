(** An OpenLDAP-style directory server core (paper section 6.2).

    Models the three backends of table 4:

    - {e back-bdb}: a volatile entry cache in front of transactional
      Berkeley DB — every add commits through the WAL;
    - {e back-ldbm}: the same cache in front of non-transactional BDB
      with periodic dirty-page flushes (cheaper, weaker reliability);
    - {e back-mnemosyne}: the backing store removed, "leaving only a
      persistent cache" — the entry cache itself is a persistent AVL
      tree updated in durable transactions.

    Every request charges the front-end cost (decoding, ACLs, DN
    normalization, response encoding) that dominates LDAP service time;
    an add then runs the backend update, which for BDB means one write
    per index (dn2id, id2entry, attribute indexes: 8 in all) inside one
    transaction.

    The back-mnemosyne entries also demonstrate the paper's
    volatile-pointer idiom: each persistent entry records the id and a
    session version for its (volatile) attribute description; a lookup
    after restart detects the stale version and re-resolves. *)

type t
type worker

type backend_kind = Back_bdb | Back_ldbm | Back_mnemosyne

val kind : t -> backend_kind

val create_bdb : ?sim:Sim.t -> ?frontend_ns:int -> Baseline.Pcm_disk.t -> t

val create_ldbm :
  ?sim:Sim.t ->
  ?frontend_ns:int ->
  ?flush_every:int ->
  Baseline.Pcm_disk.t ->
  t

val create_mnemosyne : ?frontend_ns:int -> Mnemosyne.t -> t
(** The persistent AVL entry cache is rooted at the [pstatic]
    "ldap.cache"; reopening the same instance finds the directory
    again. *)

val worker : t -> int -> Scm.Env.t -> worker
(** Bind a server thread (slot [i] for the transactional backend). *)

val add_entry : worker -> dn:int64 -> attr_id:int -> payload:Bytes.t -> unit
(** Service one SLAMD-style add request. *)

val search : worker -> dn:int64 -> (string * Bytes.t) option
(** Lookup; returns the resolved (volatile) attribute-description name
    and the payload. *)

val entries : worker -> int

val session_attr_version : t -> int
(** The volatile attribute table's current session version (bumped at
    every [create_mnemosyne] attach). *)

val stale_resolutions : t -> int
(** How many lookups found a stale version and re-resolved their
    volatile pointer — nonzero after a restart (section 6.2). *)
