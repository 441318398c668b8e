(* Negatives: a sanctioned source must not taint its callers; pure
   chains and function-local mutation acquire nothing. *)
let sanctioned_leaf () = (Unix.gettimeofday () [@lint.allow "ambient-effects"])
let sanctioned_top () = sanctioned_leaf ()

let pure_leaf x = x * 2
let pure_mid x = pure_leaf x + 1
let pure_top x = pure_mid x

(* Mutation of a binding local to the function is not an effect. *)
let local_sum xs =
  let acc = ref 0 in
  List.iter (fun x -> acc := !acc + x) xs;
  !acc

(* The allowance may sit on a type constraint, which the typed tree
   folds into the constrained call: still sanctioned at its source. *)
let sanctioned_typed_leaf () = ((Unix.time () : float) [@lint.allow "ambient-effects"])
let sanctioned_typed_top () = sanctioned_typed_leaf ()
