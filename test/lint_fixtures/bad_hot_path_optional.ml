(* Positives for the omitted-optional guard: every [@lint.hot] body
   below calls a function and leaves one of its optional arguments out. *)
let bump ?(by = 1) r = r := !r + by
let scale ?(factor = 2) x = x * factor
let shift ?(by = 1) ~x y = x + y + by
let[@lint.hot] default_filled r = bump r
let[@lint.hot] nested x = 1 + scale x
let[@lint.hot] left_open () = shift ~x:1

(* Unannotated: the same call is fine off the hot path. *)
let not_hot r = bump r
