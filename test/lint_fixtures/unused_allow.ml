(* A [@lint.allow] that excuses nothing: the linter reports it as an
   unused-allow error and exits 1. *)
let double x = (x * 2) [@lint.allow "physical-equality"]
