(* Minimal JSON values: enough to write result lines and span files, and
   to read back BENCHMARK.json, set files and child-process results. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else invalid_arg "Json: non-finite number"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          write b (Str k);
          Buffer.add_string b ": ";
          write b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let pos = ref 0 in
  let len = String.length s in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos)) in
  let rec skip () =
    if !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then (
      incr pos;
      skip ())
  in
  let expect c =
    skip ();
    if !pos < len && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= len then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > len then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !pos >= len then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < len && s.[!pos] = '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < len && s.[!pos] = ',' then (
              incr pos;
              fields ((k, v) :: acc))
            else (
              expect '}';
              Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < len && s.[!pos] = ']' then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < len && s.[!pos] = ',' then (
              incr pos;
              items (v :: acc))
            else (
              expect ']';
              Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < len && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> len then fail "trailing data";
  v

let read_file path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  parse s

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> raise (Parse_error ("missing key " ^ k)))
  | _ -> raise (Parse_error ("not an object looking up " ^ k))

let to_float = function Num f -> f | _ -> raise (Parse_error "expected a number")
let to_int v = int_of_float (to_float v)
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Parse_error "expected an array")
let to_assoc = function Obj l -> l | _ -> raise (Parse_error "expected an object")
