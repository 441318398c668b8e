(* Dense interning of canonical state keys. The hash table is only ever
   probed for membership / id lookup, never iterated, so no result can
   depend on its ordering. *)

type t = { tbl : (string, int) Hashtbl.t }

let create () = { tbl = Hashtbl.create 4096 }

let add t k =
  match Hashtbl.find_opt t.tbl k with
  | Some id -> `Seen id
  | None ->
      let id = Hashtbl.length t.tbl in
      Hashtbl.add t.tbl k id;
      `New id

let mem t k = Hashtbl.mem t.tbl k
let find_opt t k = Hashtbl.find_opt t.tbl k
let count t = Hashtbl.length t.tbl
