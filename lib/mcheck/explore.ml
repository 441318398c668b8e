type result = {
  states : int;
  transitions : int;
  depth : int;
  complete : bool;
  violation : (string * string) option;
  deadlocks : int;
  trace : string list option;
}

type progress_result = {
  reachable : int;
  hungry_states : int;
  stuck_states : int;
  progress_complete : bool;
}

let progress ?(max_states = 200_000) ~pid cfg =
  (* Forward pass: enumerate the reachable graph with dense integer state
     ids. Ids are interned in BFS order, and every later pass iterates
     arrays in id order — the intern table is only ever probed for
     membership, so no result depends on its iteration order. *)
  let ids = Intern.create () in
  let succs_acc = ref [] in (* (id, successor ids), newest first *)
  let hungry_acc = ref [] and eating_acc = ref [] in
  let queue = Queue.create () in
  let truncated = ref false in
  let intern state =
    let k = Model.key state in
    match Intern.find_opt ids k with
    | Some id -> Some id
    | None ->
        if Intern.count ids >= max_states then begin
          truncated := true;
          None
        end
        else
          match Intern.add ids k with
          | `Seen id -> Some id
          | `New id ->
              if not (Model.crashed state pid) then begin
                if Model.phase state pid = `Hungry then hungry_acc := id :: !hungry_acc;
                if Model.phase state pid = `Eating then eating_acc := id :: !eating_acc
              end;
              Queue.add (state, id) queue;
              Some id
  in
  ignore (intern (Model.initial cfg));
  while not (Queue.is_empty queue) do
    let state, id = Queue.pop queue in
    let succ_ids =
      List.filter_map (fun (_label, next) -> intern next) (Model.successors cfg state)
    in
    succs_acc := (id, succ_ids) :: !succs_acc
  done;
  let n = Intern.count ids in
  let succs_of = Array.make n [] in
  List.iter (fun (id, succ_ids) -> succs_of.(id) <- succ_ids) !succs_acc;
  let hungry = Array.make n false and eating = Array.make n false in
  List.iter (fun id -> hungry.(id) <- true) !hungry_acc;
  List.iter (fun id -> eating.(id) <- true) !eating_acc;
  (* Backward pass: which states can still lead to [pid] eating? *)
  let preds = Array.make n [] in
  Array.iteri
    (fun id succ_ids -> List.iter (fun s -> preds.(s) <- id :: preds.(s)) succ_ids)
    succs_of;
  let can_eat = Array.make n false in
  let back = Queue.create () in
  for id = 0 to n - 1 do
    if eating.(id) then begin
      can_eat.(id) <- true;
      Queue.add id back
    end
  done;
  while not (Queue.is_empty back) do
    let id = Queue.pop back in
    List.iter
      (fun p ->
        if not can_eat.(p) then begin
          can_eat.(p) <- true;
          Queue.add p back
        end)
      preds.(id)
  done;
  let hungry_count = ref 0 and stuck = ref 0 in
  for id = 0 to n - 1 do
    if hungry.(id) then begin
      incr hungry_count;
      if not can_eat.(id) then incr stuck
    end
  done;
  {
    reachable = n;
    hungry_states = !hungry_count;
    stuck_states = !stuck;
    progress_complete = not !truncated;
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
  (try
     while !walks_done < walks && !violation = None do
       incr walks_done;
       let state = ref init in
       let continue = ref true in
       let remaining = ref steps in
       while !continue && !remaining > 0 && !violation = None do
         decr remaining;
         match Model.successors cfg !state with
         | [] -> continue := false
         | succs ->
             let _, next = List.nth succs (Sim.Rng.int rng (List.length succs)) in
             incr steps_taken;
             (match check cfg next with
             | Some msg -> violation := Some (msg, Model.describe next)
             | None -> ());
             state := next
       done
     done
   with Model.Model_violation msg -> violation := Some (msg, "(during delivery)"));
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
