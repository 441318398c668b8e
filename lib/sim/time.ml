type t = int

let zero = 0
let infinity = max_int
let is_finite t = t <> infinity

let add a b =
  if a = infinity || b = infinity then infinity
  else begin
    assert (a >= 0 && b >= 0);
    let s = a + b in
    if s < 0 then infinity else s
  end

let max = Stdlib.max

let pp ppf t = if is_finite t then Format.fprintf ppf "%d" t else Format.pp_print_string ppf "inf"
let to_string t = Format.asprintf "%a" pp t
