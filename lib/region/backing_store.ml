let page_io_ns = 2500

type t = {
  dir : string;
  names : (string, int) Hashtbl.t;
  mutable next_inode : int;
}

(* Monotone count of mutating operations across every store.  Lets the
   crash-point explorer prove a scratch directory was left untouched by
   a run and skip re-seeding it from the setup copy. *)
let mutations = ref 0
let global_mutations () = !mutations

let index_path t = Filename.concat t.dir "index"

let file_name inode = Printf.sprintf "f%06d" inode
let file_path t inode = Filename.concat t.dir (file_name inode)

(* The inode a directory entry names: "f" and decimal digits, as many
   as [file_name] wrote (seven from inode 1,000,000 on). *)
let inode_of_name name =
  let n = String.length name in
  let digits = if n > 1 && name.[0] = 'f' then String.sub name 1 (n - 1) else "" in
  if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits then
    int_of_string_opt digits
  else None

let list_inodes t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map inode_of_name
  |> List.sort compare

let save_index t =
  let oc = open_out_bin (index_path t) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_binary_int oc t.next_inode;
      output_binary_int oc (Hashtbl.length t.names);
      Hashtbl.iter
        (fun name inode ->
          output_binary_int oc (String.length name);
          output_string oc name;
          output_binary_int oc inode)
        t.names)

let load_index t =
  if Sys.file_exists (index_path t) then begin
    let ic = open_in_bin (index_path t) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        t.next_inode <- input_binary_int ic;
        let n = input_binary_int ic in
        for _ = 1 to n do
          let len = input_binary_int ic in
          let name = really_input_string ic len in
          let inode = input_binary_int ic in
          Hashtbl.replace t.names name inode
        done)
  end

(* The index's count is a floor, not the next inode: an unnamed
   create does not rewrite the index, so the inodes it handed out since
   the last rewrite are known only by their files.  An inode is either
   on disk or below the count the rewrite at its deletion recorded, so
   the larger of the two never hands one out twice, across a crash
   too. *)
let open_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let t = { dir; names = Hashtbl.create 8; next_inode = 1 } in
  load_index t;
  List.iter
    (fun inode -> t.next_inode <- max t.next_inode (inode + 1))
    (list_inodes t);
  t

let create_file t ?name () =
  incr mutations;
  let inode = t.next_inode in
  t.next_inode <- inode + 1;
  close_out (open_out_bin (file_path t inode));
  (match name with
  | Some n ->
      Hashtbl.replace t.names n inode;
      save_index t
  | None -> ());
  inode

let find t name = Hashtbl.find_opt t.names name

(* The index is rewritten before the file goes, so its count is above
   the inode by the time the directory listing no longer shows it. *)
let delete_file t inode =
  incr mutations;
  let stale =
    Hashtbl.fold (fun n i acc -> if i = inode then n :: acc else acc) t.names []
  in
  List.iter (Hashtbl.remove t.names) stale;
  save_index t;
  let p = file_path t inode in
  if Sys.file_exists p then Sys.remove p

let file_exists t inode = Sys.file_exists (file_path t inode)

let file_bytes t inode =
  match Unix.stat (file_path t inode) with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* Bytes read into [buf] from [off] until it is full or the file ends. *)
let rec read_upto fd buf off =
  if off = Bytes.length buf then off
  else
    match Unix.read fd buf off (Bytes.length buf - off) with
    | 0 -> off
    | n -> read_upto fd buf (off + n)

(* A missing file, or the part of a page past the end of its file,
   reads as zeros. *)
let read_page t inode page_off buf =
  let got =
    match Unix.openfile (file_path t inode) [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
    | fd ->
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            ignore (Unix.lseek fd (page_off * Bytes.length buf) Unix.SEEK_SET);
            read_upto fd buf 0)
  in
  Bytes.fill buf got (Bytes.length buf - got) '\000'

let write_page t inode page_off buf =
  incr mutations;
  let p = file_path t inode in
  let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let start = page_off * Bytes.length buf in
      ignore (Unix.lseek fd start Unix.SEEK_SET);
      let rec write_all off remaining =
        if remaining > 0 then begin
          let n = Unix.write fd buf off remaining in
          write_all (off + n) (remaining - n)
        end
      in
      write_all 0 (Bytes.length buf))

let sync t =
  incr mutations;
  save_index t
