type result = {
  states : int;
  transitions : int;
  depth : int;
  complete : bool;
  violation : (string * string) option;
  deadlocks : int;
  trace : string list option;
}

let pp_result ppf r =
  Format.fprintf ppf "states=%d transitions=%d depth=%d complete=%b deadlocks=%d %s" r.states
    r.transitions r.depth r.complete r.deadlocks
    (match r.violation with
    | None -> "no violation"
    | Some (msg, state) ->
        Printf.sprintf "VIOLATION: %s in [%s]%s" msg state
          (match r.trace with
          | Some t -> Printf.sprintf " after %d steps" (List.length t)
          | None -> ""))
