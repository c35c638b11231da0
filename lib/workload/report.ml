let section id title = Printf.printf "\n== %s: %s ==\n" id title

let table ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with
        | Some cell -> max m (String.length cell)
        | None -> m)
      0 all
  in
  let widths = List.init ncols width in
  let render row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           let pad = w - String.length cell in
           if c = 0 then cell ^ String.make pad ' '
           else String.make pad ' ' ^ cell)
         (row @ List.init (ncols - List.length row) (fun _ -> "")))
  in
  Printf.printf "%s\n" (render header);
  Printf.printf "%s\n"
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Printf.printf "%s\n" (render row)) rows

let note s = Printf.printf "   %s\n" s

let group_thousands s =
  let n = String.length s in
  let buf = Buffer.create (n + (n / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ops v = group_thousands (Printf.sprintf "%.0f" v) ^ "/s"
