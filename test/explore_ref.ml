(* Walk parent pointers (id -> parent id * incoming label) back to the
   root and return the schedule root -> violating state. *)
let rebuild_trace parents id =
  let rec go id acc =
    match Hashtbl.find_opt parents id with
    | None -> acc
    | Some (parent, label) -> go parent (label :: acc)
  in
  go id []

let bfs ?(max_states = 200_000) ?(max_depth = max_int) ?check cfg =
  let check = match check with Some f -> f | None -> Mcheck.Model.check in
  let interned = Mcheck.Intern.create () in
  let parents : (int, int * string) Hashtbl.t = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let transitions = ref 0 in
  let depth = ref 0 in
  let violation = ref None in
  let vio_id = ref (-1) in
  let truncated = ref false in
  let deadlocks = ref 0 in
  let enqueue d parent label state =
    let k = Mcheck.Model.key state in
    if not (Mcheck.Intern.mem interned k) then begin
      if Mcheck.Intern.count interned >= max_states then truncated := true
      else
        match Mcheck.Intern.add interned k with
        | `Seen _ -> ()
        | `New id ->
            if parent >= 0 then Hashtbl.add parents id (parent, label);
            if d > !depth then depth := d;
            (match check cfg state with
            | Some msg ->
                violation := Some (msg, Mcheck.Model.describe state);
                vio_id := id
            | None -> ());
            Queue.add (state, id, d) queue
    end
  in
  enqueue 0 (-1) "" (Mcheck.Model.initial cfg);
  while (not (Queue.is_empty queue)) && !violation = None do
    let state, id, d = Queue.pop queue in
    match Mcheck.Model.successors cfg state with
    | exception Mcheck.Model.Model_violation msg ->
        violation := Some (msg, Mcheck.Model.describe state);
        vio_id := id
    | [] -> if Mcheck.Model.hungry_live_process cfg state <> None then incr deadlocks
    | succs ->
        if d < max_depth then
          List.iter
            (fun (label, next) ->
              incr transitions;
              if !violation = None then enqueue (d + 1) id label next)
            succs
        else
          List.iter
            (fun (_label, next) ->
              incr transitions;
              if not (Mcheck.Intern.mem interned (Mcheck.Model.key next)) then truncated := true)
            succs
  done;
  {
    Mcheck.Explore.states = Mcheck.Intern.count interned;
    transitions = !transitions;
    depth = !depth;
    complete = (not !truncated) && !violation = None;
    violation = !violation;
    deadlocks = !deadlocks;
    trace = (if !vio_id >= 0 then Some (rebuild_trace parents !vio_id) else None);
  }
