type divergence = {
  index : int;  (* 0-based position of the first differing event *)
  a : string option;
  b : string option;
  context : string list;  (* tail of the common prefix, oldest first *)
}

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let first_divergence ?(context = 3) a b =
  let arr_a = Array.of_list a and arr_b = Array.of_list b in
  let la = Array.length arr_a and lb = Array.length arr_b in
  let rec scan i =
    if i >= la && i >= lb then None
    else begin
      let va = if i < la then Some arr_a.(i) else None in
      let vb = if i < lb then Some arr_b.(i) else None in
      if va = vb then scan (i + 1)
      else begin
        (* Everything before [i] matched, so either side is "the" common
           prefix; surface its tail for orientation. *)
        let from = max 0 (i - context) in
        let common = Array.to_list (Array.sub arr_a from (min la i - from)) in
        Some { index = i; a = va; b = vb; context = common }
      end
    end
  in
  scan 0

let identical a b = first_divergence ~context:0 a b = None

let pp_line ppf prefix = function
  | None -> Format.fprintf ppf "%s <end of trace>@," prefix
  | Some l -> Format.fprintf ppf "%s %s@," prefix l

let pp ppf d =
  Format.pp_open_vbox ppf 0;
  let where =
    match d.a with
    | Some l -> (
        match (Jsonl.field_int l "t", Jsonl.field_int l "seq") with
        | Some t, Some seq -> Format.sprintf " (A: seq %d, virtual time %d)" seq t
        | _ -> "")
    | None -> ""
  in
  Format.fprintf ppf "first divergence at event %d%s@," d.index where;
  if d.context <> [] then begin
    Format.fprintf ppf "common prefix ends with:@,";
    List.iter (fun l -> Format.fprintf ppf "  %s@," l) d.context
  end;
  pp_line ppf "A:" d.a;
  pp_line ppf "B:" d.b;
  Format.pp_close_box ppf ()
