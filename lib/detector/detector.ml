type t = {
  name : string;
  suspects : int -> bool;
  subscribe : (int -> unit) -> unit;
}

(* Subscribing (rare) appends, so a suspicion flip walks the list as it
   stands, with a toplevel recursion: no cons or closure per flip. *)
type listeners = { mutable fs : (int -> unit) list }

let listeners () = { fs = [] }
let subscribe l f = l.fs <- l.fs @ [ f ]

let rec fire observer = function
  | [] -> ()
  | f :: rest ->
      f observer;
      fire observer rest

let notify l observer = fire observer l.fs
