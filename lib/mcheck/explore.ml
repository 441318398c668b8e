type result = {
  states : int;
  transitions : int;
  depth : int;
  complete : bool;
  violation : (string * string) option;
  deadlocks : int;
  trace : string list option;
}

type walk_result = {
  walks_done : int;
  steps_taken : int;
  walk_violation : (string * string) option;
}

let random_walk ?(walks = 64) ?(steps = 400) ?check ~seed cfg =
  let check = match check with Some f -> f | None -> Model.check in
  let rng = Sim.Rng.create seed in
  let steps_taken = ref 0 in
  let violation = ref None in
  let walks_done = ref 0 in
  (* The initial state is on every walk; check it once (BFS checks it
     via its depth-0 enqueue — a walker that skips it would silently
     miss a violation in [Model.initial]). *)
  let init = Model.initial cfg in
  (match check cfg init with
  | Some msg -> violation := Some (msg, Model.describe init)
  | None -> ());
  while !walks_done < walks && !violation = None do
    incr walks_done;
    let state = ref init in
    let continue = ref true in
    let remaining = ref steps in
    while !continue && !remaining > 0 && !violation = None do
      decr remaining;
      match Model.successors cfg !state with
      | exception Model.Model_violation msg -> violation := Some (msg, Model.describe !state)
      | [] -> continue := false
      | succs ->
          let _, next = List.nth succs (Sim.Rng.int rng (List.length succs)) in
          incr steps_taken;
          (match check cfg next with
          | Some msg -> violation := Some (msg, Model.describe next)
          | None -> ());
          state := next
    done
  done;
  { walks_done = !walks_done; steps_taken = !steps_taken; walk_violation = !violation }

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
