type align = Left | Right
type row = Cells of string list | Rule

type t = {
  title : string;
  columns : (string * align) list;
  mutable rows : row list; (* newest first *)
}

let create ~title ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns" (List.length cells)
         (List.length t.columns));
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let render t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun idx header ->
        List.fold_left
          (fun acc row ->
            match row with
            | Rule -> acc
            | Cells cells -> max acc (String.length (List.nth cells idx)))
          (String.length header) rows)
      headers
  in
  let pad align width s =
    let gap = width - String.length s in
    if gap <= 0 then s
    else
      match align with
      | Left -> s ^ String.make gap ' '
      | Right -> String.make gap ' ' ^ s
  in
  let aligns = List.map snd t.columns in
  let fmt_cells cells =
    let padded = List.map2 (fun (w, a) c -> pad a w c) (List.combine widths aligns) cells in
    "  " ^ String.concat "  " padded
  in
  let rule = "  " ^ String.concat "--" (List.map (fun w -> String.make w '-') widths) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (fmt_cells headers ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter
    (fun row ->
      match row with
      | Rule -> Buffer.add_string buf (rule ^ "\n")
      | Cells cells -> Buffer.add_string buf (fmt_cells cells ^ "\n"))
    rows;
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 256 in
  let line cells = Buffer.add_string buf (String.concat "," (List.map csv_escape cells) ^ "\n") in
  line (List.map fst t.columns);
  List.iter (function Rule -> () | Cells cells -> line cells) (List.rev t.rows);
  Buffer.contents buf

let pp ppf t =
  Format.pp_print_string ppf (render t);
  Format.pp_print_string ppf "\n"

let cell_int = string_of_int

let cell_float ?(decimals = 1) f = Printf.sprintf "%.*f" decimals f

let cell_bool b = if b then "yes" else "no"

let cell_time ticks = if ticks = max_int then "inf" else string_of_int ticks
