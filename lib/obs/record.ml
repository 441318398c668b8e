type kind =
  | Sched of { id : int; at : int }
  | Fire of { id : int }
  | Send of { src : int; dst : int; tag : string; deliver_at : int }
  | Deliver of { src : int; dst : int; tag : string }
  | Drop of { src : int; dst : int; tag : string }
  | Phase of { pid : int; phase : string }
  | Suspect of { observer : int; target : int; on : bool }
  | Crash of { pid : int }
  | Mark of { subject : int; tag : string; detail : string }

type t = { seq : int; time : int; kind : kind }

let structural = function
  | Sched _ | Fire _ | Send _ | Deliver _ | Drop _ -> true
  | Phase _ | Suspect _ | Crash _ | Mark _ -> false

let label = function
  | Sched _ -> "sched"
  | Fire _ -> "fire"
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"
  | Phase _ -> "phase"
  | Suspect _ -> "suspect"
  | Crash _ -> "crash"
  | Mark _ -> "mark"

let subject = function
  | Sched _ | Fire _ -> -1
  | Send { src; _ } | Deliver { src; _ } | Drop { src; _ } -> src
  | Phase { pid; _ } -> pid
  | Suspect { observer; _ } -> observer
  | Crash { pid } -> pid
  | Mark { subject; _ } -> subject

(* Rows keep the tags printed traces have always used: phases as
   "eat"/"think", not "eating"/"thinking". *)
let pp_row ppf r =
  let tag, detail =
    match r.kind with
    | Phase { phase = "eating"; _ } -> ("eat", "")
    | Phase { phase = "thinking"; _ } -> ("think", "")
    | Phase { phase; _ } -> (phase, "")
    | Suspect { target; on; _ } ->
        ((if on then "suspect" else "unsuspect"), Printf.sprintf "p%d" target)
    | Mark { tag; detail; _ } -> (tag, detail)
    | k -> (label k, "")
  in
  Format.fprintf ppf "[%8d] p%-3d %-14s %s" r.time (subject r.kind) tag detail
