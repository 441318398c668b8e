(* Depth-first exploration with sleep-set partial-order reduction and
   optional preemption-bounded scheduling, in the dejafu / Godefroid
   mold.

   Sleep sets: when sibling transitions [t1; t2] at a state are
   independent, the subtree below [t2] need not re-explore [t1] first —
   [t1;t2] and [t2;t1] lead to the same state, and the [t1]-first order
   was already taken. Exploring [t2], the child inherits a sleep set
   holding every already-explored sibling (and inherited sleeper) that
   is independent of [t2]; sleeping transitions are skipped when their
   turn comes. With a valid independence relation this prunes only
   redundant interleavings: every reachable state is still visited (the
   classic result that sleep sets alone reduce transitions, not states),
   so per-state invariant checking loses nothing.

   State matching is Godefroid's stored-sleep-set variant (the sound
   form of sleep sets + state caching): each visited state remembers
   which of its transitions are still unexplored — exactly those slept
   on every visit so far. Revisiting with sleep set [c], only
   [stored \ c] is (re-)explored and the memo shrinks to [stored ∩ c];
   revisits with nothing new to wake are pruned outright. The
   to-explore sets of successive visits are disjoint, so every
   transition out of a state executes at most once across the whole
   search: the DPOR transition count is bounded by the BFS one, and is
   strictly smaller as soon as any sleep survives to the end.

   Preemption bounding: dejafu-style schedule bounding. Executing a
   transition of process [q] directly after one of process [p <> q]
   while [p] still has an enabled transition costs one preemption;
   schedules exceeding the budget are pruned and the result is marked
   incomplete. Sound for bug-finding within the bound, not exhaustive. *)

module Sset = Set.Make (String)

type frame = {
  label_in : string; (* incoming transition label, "" at the root *)
  proc_in : int; (* process of the incoming transition, -1 at the root *)
  preempts : int; (* preemptions spent reaching this state *)
  enabled_procs : int list; (* processes with an enabled transition here *)
  mutable pending : (Model.action * string * Model.state) list;
      (* transitions still to run on THIS visit (the wake set) *)
  mutable sleep : (Model.action * string) list;
      (* working sleep set: inherited sleepers plus taken siblings;
         children inherit its independent subset *)
}

let explore ?(max_states = 200_000) ?(max_depth = max_int) ?preemption_bound ?check cfg =
  let check = match check with Some f -> f | None -> Model.check in
  let interned = Intern.create () in
  (* id -> labels of this state's transitions never yet explored (slept
     on every visit so far). Absent id = never expanded. *)
  let unexplored : (int, Sset.t) Hashtbl.t = Hashtbl.create 4096 in
  let transitions = ref 0 in
  let max_stack = ref 0 in
  let violation = ref None in
  let vio_trace = ref None in
  let truncated = ref false in
  let bound_hit = ref false in
  let deadlocks = ref 0 in
  let stack = ref [] in
  let stack_trace frames =
    List.rev
      (List.filter_map (fun f -> if f.label_in = "" then None else Some f.label_in) frames)
  in
  (* Enter [state], reached via [label_in] under sleep set [sleep].
     Interns and invariant-checks fresh states; decides the wake set
     from the memo; pushes a frame when anything is left to run. *)
  let push ~state ~label_in ~proc_in ~preempts ~sleep =
    let k = Model.key state in
    let depth = List.length !stack in
    let fresh, id_opt =
      match Intern.find_opt interned k with
      | Some id -> (false, Some id)
      | None ->
          if Intern.count interned >= max_states then begin
            truncated := true;
            (false, None)
          end
          else begin
            let id = match Intern.add interned k with `New id | `Seen id -> id in
            (match check cfg state with
            | Some msg ->
                violation := Some (msg, Model.describe state);
                vio_trace :=
                  Some (stack_trace !stack @ if label_in = "" then [] else [ label_in ])
            | None -> ());
            (true, Some id)
          end
    in
    if !violation = None then
      match id_opt with
      | None -> () (* capped out above *)
      | Some id ->
          if depth > max_depth then truncated := true
          else begin
            let sleeping = Sset.of_list (List.map snd sleep) in
            match Hashtbl.find_opt unexplored id with
            | Some stored when Sset.subset stored sleeping ->
                () (* a revisit that wakes nothing and keeps the memo *)
            | memo -> (
                match Model.successors_tagged cfg state with
                | exception Model.Model_violation msg ->
                    violation := Some (msg, Model.describe state);
                    vio_trace :=
                      Some (stack_trace !stack @ if label_in = "" then [] else [ label_in ])
                | succs ->
                    if fresh && Model.stuck cfg state succs then incr deadlocks;
                    let wake =
                      match memo with
                      | None ->
                          (* first expansion: run everything not slept;
                             remember the slept remainder *)
                          let slept, wake =
                            List.partition (fun (_, l, _) -> Sset.mem l sleeping) succs
                          in
                          Hashtbl.replace unexplored id
                            (Sset.of_list (List.map (fun (_, l, _) -> l) slept));
                          wake
                      | Some stored ->
                          (* revisit: wake only what every earlier visit
                             slept on and this one does not *)
                          let wake =
                            List.filter
                              (fun (_, l, _) ->
                                Sset.mem l stored && not (Sset.mem l sleeping))
                              succs
                          in
                          Hashtbl.replace unexplored id (Sset.inter stored sleeping);
                          wake
                    in
                    if wake <> [] then begin
                      let enabled_procs =
                        List.sort_uniq compare
                          (List.map (fun (a, _, _) -> Model.proc_of a) succs)
                      in
                      stack :=
                        { label_in; proc_in; preempts; enabled_procs; pending = wake; sleep }
                        :: !stack;
                      if depth + 1 > !max_stack then max_stack := depth + 1
                    end)
          end
  in
  push ~state:(Model.initial cfg) ~label_in:"" ~proc_in:(-1) ~preempts:0 ~sleep:[];
  while !stack <> [] && !violation = None do
    match !stack with
    | [] -> ()
    | f :: rest -> (
        match f.pending with
        | [] -> stack := rest
        | (act, label, next) :: pending ->
            f.pending <- pending;
            let cost =
              if
                f.proc_in >= 0
                && Model.proc_of act <> f.proc_in
                && List.mem f.proc_in f.enabled_procs
              then 1
              else 0
            in
            let over_bound =
              match preemption_bound with
              | Some b -> f.preempts + cost > b
              | None -> false
            in
            if over_bound then bound_hit := true
            else begin
              incr transitions;
              let child_sleep =
                List.filter (fun (a, _l) -> Model.independent cfg a act) f.sleep
              in
              f.sleep <- (act, label) :: f.sleep;
              push ~state:next ~label_in:label ~proc_in:(Model.proc_of act)
                ~preempts:(f.preempts + cost) ~sleep:child_sleep
            end)
  done;
  {
    Explore.states = Intern.count interned;
    transitions = !transitions;
    depth = !max_stack;
    complete = (not !truncated) && (not !bound_hit) && !violation = None;
    violation = !violation;
    deadlocks = !deadlocks;
    trace = !vio_trace;
  }
