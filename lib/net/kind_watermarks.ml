(* In-flight counts per (edge, tag), the edge keyed by its endpoints in
   ascending order, and the running maximum per tag. Records arrive in
   event order: a recorder with a sink keeps the engine on its
   sequential loop. *)
type t = { in_flight : (int * int * string, int ref) Hashtbl.t; worst : (string, int ref) Hashtbl.t }

let cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add tbl key c;
      c

let edge t src dst tag = cell t.in_flight (min src dst, max src dst, tag)

let observe t (r : Obs.Record.t) =
  match r.kind with
  | Send { src; dst; tag; _ } ->
      let c = edge t src dst tag in
      incr c;
      let w = cell t.worst tag in
      if !c > !w then w := !c
  | Deliver { src; dst; tag } | Drop { src; dst; tag } -> decr (edge t src dst tag)
  | _ -> ()

let attach recorder =
  let t = { in_flight = Hashtbl.create 64; worst = Hashtbl.create 8 } in
  Obs.Recorder.on_record recorder (observe t);
  t

let max_by_kind t = Hashtbl.fold (fun tag w acc -> (tag, !w) :: acc) t.worst [] |> List.sort compare
