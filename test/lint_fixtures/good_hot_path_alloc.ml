(* Negatives: allocation-free tail recursion and int arithmetic stay
   silent; a deliberate cons is justified in place. *)
let rec sum_from arr acc i =
  if i >= Array.length arr then acc else sum_from arr (acc + arr.(i)) (i + 1)

let[@lint.hot] sum arr = sum_from arr 0 0

let[@lint.hot] clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let[@lint.hot] push x l = (x :: l) [@lint.allow "hot-path-alloc"]

(* Constant trees are static data the compiler emits once: a format
   string on the failure path, a constant option. *)
let[@lint.hot] checked x =
  if x < 0 then Printf.ksprintf failwith "negative: %d (%s)" x "checked";
  Some (1, "one")
