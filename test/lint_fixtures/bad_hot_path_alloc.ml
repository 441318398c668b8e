(* Positives for the hot-path allocation guard: every [@lint.hot] body
   below allocates one heap block per call. *)
let[@lint.hot] makes_closure xs = List.iter (fun x -> ignore x) xs
let[@lint.hot] makes_tuple x y = fst (x, y)
let[@lint.hot] makes_ref x = !(ref x)
let[@lint.hot] makes_cons x l = x :: l
let[@lint.hot] makes_copy a = Array.copy a
let[@lint.hot] makes_some x = Some x

(* Unannotated: the same allocations are fine off the hot path. *)
let not_hot x y = (x, y)
