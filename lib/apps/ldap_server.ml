(* The volatile attribute-description table the front end keeps; the
   persistent cache entries point into it by id + session version. *)
let attribute_table =
  [| "cn"; "sn"; "mail"; "uid"; "telephoneNumber"; "ou"; "description" |]

type backend_kind = Back_bdb | Back_ldbm | Back_mnemosyne

type mnemo_state = {
  inst : Mnemosyne.t;
  cache_slot : int;
  session_version : int64;
  mutable stale : int;
}

type bdb_state = {
  store : Baseline.Bdb.t;
  volatile_cache : (int64, int * Bytes.t) Hashtbl.t;
  transactional : bool;
  flush_every : int;
  mutable ops : int;
}

type backend = Bdb_like of bdb_state | Mnemo of mnemo_state

type t = { backend : backend; frontend_ns : int }

(* Indexes a BDB-backed add writes: dn2id, id2entry and attributes. *)
let nindexes = 8

type worker = {
  server : t;
  env : Scm.Env.t;
  mtm_thread : Mtm.Txn.thread option;
}

let kind t =
  match t.backend with
  | Bdb_like { transactional = true; _ } -> Back_bdb
  | Bdb_like _ -> Back_ldbm
  | Mnemo _ -> Back_mnemosyne

let create_bdb ?sim ?(frontend_ns = 540_000) disk =
  {
    backend =
      Bdb_like
        {
          store = Baseline.Bdb.create ?sim ~op_overhead_ns:22_000 disk;
          volatile_cache = Hashtbl.create 4096;
          transactional = true;
          flush_every = max_int;
          ops = 0;
        };
    frontend_ns;
  }

let create_ldbm ?sim ?(frontend_ns = 540_000) ?(flush_every = 32) disk =
  {
    backend =
      Bdb_like
        {
          store = Baseline.Bdb.create ?sim ~op_overhead_ns:10_000 disk;
          volatile_cache = Hashtbl.create 4096;
          transactional = false;
          flush_every;
          ops = 0;
        };
    frontend_ns;
  }

let version_slot_name = "ldap.attr.version"
let cache_slot_name = "ldap.cache"

let create_mnemosyne ?(frontend_ns = 540_000) inst =
  (* Bump the persistent session version: volatile attribute pointers
     recorded under older versions are stale from now on. *)
  let vslot = Mnemosyne.pstatic inst version_slot_name 8 in
  let v = Mnemosyne.view inst in
  let session = Int64.add (Region.Pmem.load v vslot) 1L in
  Region.Pmem.wtstore v vslot session;
  Region.Pmem.fence v;
  let cache_slot = Mnemosyne.pstatic inst cache_slot_name 8 in
  if Region.Pmem.load v cache_slot = 0L then
    ignore
      (Mnemosyne.atomically inst (fun tx ->
           Pstruct.Avl_tree.create tx ~slot:cache_slot));
  {
    backend =
      Mnemo { inst; cache_slot; session_version = session; stale = 0 };
    frontend_ns;
  }

let worker t i env =
  match t.backend with
  | Bdb_like _ -> { server = t; env; mtm_thread = None }
  | Mnemo { inst; _ } ->
      { server = t; env; mtm_thread = Some (Mnemosyne.thread inst i env) }

let session_attr_version t =
  match t.backend with
  | Mnemo m -> Int64.to_int m.session_version
  | Bdb_like _ -> 0

let stale_resolutions t =
  match t.backend with Mnemo m -> m.stale | Bdb_like _ -> 0

(* Entry payload layout in the persistent cache:
   [attr_id][session version][payload bytes]. *)
let encode_entry ~attr_id ~version payload =
  let b = Bytes.create (16 + Bytes.length payload) in
  Bytes.set_int64_le b 0 (Int64.of_int attr_id);
  Bytes.set_int64_le b 8 version;
  Bytes.blit payload 0 b 16 (Bytes.length payload);
  b

let decode_entry b =
  ( Int64.to_int (Bytes.get_int64_le b 0),
    Bytes.get_int64_le b 8,
    Bytes.sub b 16 (Bytes.length b - 16) )

let index_key i dn = Bytes.of_string (Printf.sprintf "ix%d/%Ld" i dn)

let tree_of w tx =
  match w.server.backend with
  | Mnemo m ->
      Pstruct.Avl_tree.attach tx
        ~root:(Int64.to_int (Mtm.Txn.load tx m.cache_slot))
  | Bdb_like _ -> assert false

let add_entry w ~dn ~attr_id ~payload =
  let t = w.server in
  w.env.Scm.Env.delay t.frontend_ns;
  match t.backend with
  | Bdb_like s ->
      (* One write per index; the last one carries the commit in the
         transactional backend. *)
      for i = 0 to nindexes - 2 do
        Baseline.Bdb.put_nosync s.store w.env (index_key i dn) payload
      done;
      if s.transactional then
        Baseline.Bdb.put s.store w.env (index_key (nindexes - 1) dn) payload
      else begin
        Baseline.Bdb.put_nosync s.store w.env
          (index_key (nindexes - 1) dn)
          payload;
        s.ops <- s.ops + 1;
        if s.ops mod s.flush_every = 0 then
          Baseline.Bdb.flush_dirty s.store w.env ()
      end;
      Hashtbl.replace s.volatile_cache dn (attr_id, payload)
  | Mnemo m ->
      let th = Option.get w.mtm_thread in
      Mtm.Txn.run th (fun tx ->
          let tree = tree_of w tx in
          Pstruct.Avl_tree.put tx tree dn
            (encode_entry ~attr_id ~version:m.session_version payload))

let search w ~dn =
  let t = w.server in
  w.env.Scm.Env.delay (t.frontend_ns / 2);
  match t.backend with
  | Bdb_like s ->
      Option.map
        (fun (attr_id, payload) -> (attribute_table.(attr_id), payload))
        (Hashtbl.find_opt s.volatile_cache dn)
  | Mnemo m ->
      let th = Option.get w.mtm_thread in
      Mtm.Txn.run th (fun tx ->
          let tree = tree_of w tx in
          match Pstruct.Avl_tree.find tx tree dn with
          | None -> None
          | Some entry ->
              let attr_id, version, payload = decode_entry entry in
              if version <> m.session_version then begin
                (* The volatile attribute description from the previous
                   run is gone; re-resolve by id and repair the entry
                   (section 6.2's version-number pattern). *)
                m.stale <- m.stale + 1;
                Pstruct.Avl_tree.put tx tree dn
                  (encode_entry ~attr_id ~version:m.session_version payload)
              end;
              Some (attribute_table.(attr_id), payload))

let entries w =
  match w.server.backend with
  | Bdb_like s -> Hashtbl.length s.volatile_cache
  | Mnemo _ ->
      let th = Option.get w.mtm_thread in
      Mtm.Txn.run th (fun tx ->
          Pstruct.Avl_tree.length tx (tree_of w tx))
