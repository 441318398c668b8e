(* Hand-rolled compact JSON: the record shapes are flat and fixed, and
   field order is deterministic by construction, so byte-identical runs
   export byte-identical lines. *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let str buf k v =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf k;
  Buffer.add_string buf "\":\"";
  escape buf v;
  Buffer.add_char buf '"'

let int buf k v =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf k;
  Buffer.add_string buf "\":";
  Buffer.add_string buf (string_of_int v)

let bool buf k v =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf k;
  Buffer.add_string buf "\":";
  Buffer.add_string buf (if v then "true" else "false")

let append buf (r : Record.t) =
  Buffer.add_string buf "{\"seq\":";
  Buffer.add_string buf (string_of_int r.seq);
  Buffer.add_string buf ",\"t\":";
  Buffer.add_string buf (string_of_int r.time);
  Buffer.add_string buf ",\"k\":\"";
  Buffer.add_string buf (Record.label r.kind);
  Buffer.add_char buf '"';
  (match r.kind with
  | Record.Sched { id; at } ->
      int buf "id" id;
      int buf "at" at
  | Record.Fire { id } -> int buf "id" id
  | Record.Send { src; dst; tag; deliver_at } ->
      int buf "src" src;
      int buf "dst" dst;
      str buf "tag" tag;
      int buf "at" deliver_at
  | Record.Deliver { src; dst; tag } | Record.Drop { src; dst; tag } ->
      int buf "src" src;
      int buf "dst" dst;
      str buf "tag" tag
  | Record.Phase { pid; phase } ->
      int buf "pid" pid;
      str buf "phase" phase
  | Record.Suspect { observer; target; on } ->
      int buf "obs" observer;
      int buf "tgt" target;
      bool buf "on" on
  | Record.Crash { pid } -> int buf "pid" pid
  | Record.Mark { subject; tag; detail } ->
      int buf "pid" subject;
      str buf "tag" tag;
      if detail <> "" then str buf "detail" detail);
  Buffer.add_string buf "}\n"

let to_line r =
  let buf = Buffer.create 96 in
  append buf r;
  (* append terminates the line; a lone line is returned without it. *)
  Buffer.sub buf 0 (Buffer.length buf - 1)

let of_records records =
  let buf = Buffer.create 4096 in
  List.iter (append buf) records;
  Buffer.contents buf

(* Minimal field scanner: looks for ["name":<int>] in a line, enough to
   surface time/seq when reporting a divergence without a JSON parser. *)
let field_int line name =
  let needle = "\"" ^ name ^ "\":" in
  let nlen = String.length needle and llen = String.length line in
  let rec find i = if i + nlen > llen then None else if String.sub line i nlen = needle then Some (i + nlen) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while
        !stop < llen && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr stop
      done;
      if !stop = start then None else int_of_string_opt (String.sub line start (!stop - start))

(* Companion scanner for ["name":"<string>"] fields, undoing the escapes
   [escape] produces (\uXXXX is left alone: no emitter here writes any
   character it would need to recover). *)
let field_string line name =
  let needle = "\"" ^ name ^ "\":\"" in
  let nlen = String.length needle and llen = String.length line in
  let rec find i = if i + nlen > llen then None else if String.sub line i nlen = needle then Some (i + nlen) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start ->
      let buf = Buffer.create 16 in
      let rec scan i =
        if i >= llen then None
        else
          match line.[i] with
          | '"' -> Some (Buffer.contents buf)
          | '\\' when i + 1 < llen ->
              (match line.[i + 1] with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | c ->
                  Buffer.add_char buf '\\';
                  Buffer.add_char buf c);
              scan (i + 2)
          | c ->
              Buffer.add_char buf c;
              scan (i + 1)
      in
      scan start
