type t = {
  name : string;
  suspects : int -> bool;
  subscribe : (int -> unit) -> unit;
}

(* Listeners are stored newest-first (O(1) subscribe); reverse at fire so
   callbacks run in registration order. *)
let notify listeners observer = List.iter (fun f -> f observer) (List.rev !listeners)
