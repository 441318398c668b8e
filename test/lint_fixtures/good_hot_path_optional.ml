(* Negatives for the omitted-optional guard: every optional argument of
   a hot call is written out, or the hot path calls a function without
   one; a deliberate omission is justified in place. *)
let bump ?(by = 1) r = r := !r + by
let incr r = r := !r + 1
let[@lint.hot] supplied r = bump ~by:1 r
let[@lint.hot] plain r = incr r
let[@lint.hot] justified r = (bump r) [@lint.allow "hot-path-optional"]
