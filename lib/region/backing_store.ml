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

let file_path t inode = Filename.concat t.dir (Printf.sprintf "f%06d" inode)

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

let open_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let t = { dir; names = Hashtbl.create 8; next_inode = 1 } in
  load_index t;
  t

let create_file t ?name () =
  incr mutations;
  let inode = t.next_inode in
  t.next_inode <- inode + 1;
  let oc = open_out_bin (file_path t inode) in
  close_out oc;
  (match name with Some n -> Hashtbl.replace t.names n inode | None -> ());
  save_index t;
  inode

let find t name = Hashtbl.find_opt t.names name

let delete_file t inode =
  incr mutations;
  let p = file_path t inode in
  if Sys.file_exists p then Sys.remove p;
  let stale =
    Hashtbl.fold (fun n i acc -> if i = inode then n :: acc else acc) t.names []
  in
  List.iter (Hashtbl.remove t.names) stale;
  save_index t

let file_exists t inode = Sys.file_exists (file_path t inode)

let list_inodes t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun name ->
         if String.length name = 7 && name.[0] = 'f' then
           int_of_string_opt (String.sub name 1 6)
         else None)
  |> List.sort compare

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
