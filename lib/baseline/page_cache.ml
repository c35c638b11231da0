type entry = { data : Bytes.t; mutable dirty : bool; mutable stamp : int }

type t = {
  disk : Pcm_disk.t;
  capacity : int;
  table : (int, entry) Hashtbl.t;
  mutable clock : int;
}

let create disk ~capacity_pages =
  {
    disk;
    capacity = capacity_pages;
    table = Hashtbl.create (2 * capacity_pages);
    clock = 0;
  }

let lru_victim t =
  Hashtbl.fold
    (fun page e acc ->
      match acc with
      | Some (_, best) when best.stamp <= e.stamp -> acc
      | _ -> Some (page, e))
    t.table None

let evict_one t env =
  match lru_victim t with
  | None -> ()
  | Some (page, e) ->
      if e.dirty then Pcm_disk.write_block t.disk env page e.data;
      Hashtbl.remove t.table page

let get t env page =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.table page with
  | Some e ->
      e.stamp <- t.clock;
      e.data
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_one t env;
      let data = Pcm_disk.read_block t.disk env page in
      Hashtbl.replace t.table page { data; dirty = false; stamp = t.clock };
      data

let mark_dirty t page =
  match Hashtbl.find_opt t.table page with
  | Some e -> e.dirty <- true
  | None -> invalid_arg "Page_cache.mark_dirty: page not resident"

let resident t = Hashtbl.length t.table

let flush_some t env ~max =
  let written = ref 0 in
  (try
     Hashtbl.iter
       (fun page e ->
         if e.dirty && !written < max then begin
           Pcm_disk.write_block t.disk env page e.data;
           e.dirty <- false;
           incr written
         end
         else if !written >= max then raise Exit)
       t.table
   with Exit -> ());
  !written
