type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  rng : Sim.Rng.t;
  protocol : Protocol.t;
  instance : Dining.Instance.t;
  states : int array;
  step_duration : int * int;
  reaction_delay : int * int;
  in_cs : bool array;
  mutable steps_executed : int;
  mutable overlap_races : int;
  mutable error_log : (Sim.Time.t * int) list; (* newest first *)
}

type outcome = {
  converged_at : Sim.Time.t option;
  final_error : int;
  steps_executed : int;
  error_series : (float * float) list;
  overlap_races : int;
}

let sample rng (lo, hi) = if lo >= hi then lo else Sim.Rng.int_in rng lo hi
let alive t pid = not (Net.Faults.is_crashed t.faults pid)

let view t pid =
  {
    Protocol.self = pid;
    state = t.states.(pid);
    neighbors = Array.map (fun j -> (j, t.states.(j))) (Cgraph.Graph.neighbors t.graph pid);
  }

let error_now t = t.protocol.Protocol.error t.graph t.states (alive t)
let log_error t = t.error_log <- (Sim.Engine.now t.engine, error_now t) :: t.error_log

(* A process asks to be scheduled whenever it has an enabled command. The
   enabledness is re-checked when the delayed request fires, because a
   neighbor's step may have disabled it meanwhile. *)
let consider t pid =
  if
    alive t pid
    && t.instance.phase pid = Dining.Types.Thinking
    && t.protocol.Protocol.enabled (view t pid)
  then
    Sim.Engine.schedule_after t.engine ~owner:pid ~delay:(sample t.rng t.reaction_delay)
      (fun () ->
        if
          alive t pid
          && t.instance.phase pid = Dining.Types.Thinking
          && t.protocol.Protocol.enabled (view t pid)
        then t.instance.become_hungry pid)

let consider_neighborhood t pid =
  consider t pid;
  Array.iter (consider t) (Cgraph.Graph.neighbors t.graph pid)

let attach ~engine ~faults ~graph ~rng ~protocol ?(step_duration = (5, 20))
    ?(reaction_delay = (1, 10)) (instance : Dining.Instance.t) =
  let n = Cgraph.Graph.n graph in
  let t =
    {
      engine;
      faults;
      graph;
      rng;
      protocol;
      instance;
      states = Array.init n (fun pid -> protocol.Protocol.init rng pid);
      step_duration;
      reaction_delay;
      in_cs = Array.make n false;
      steps_executed = 0;
      overlap_races = 0;
      error_log = [];
    }
  in
  log_error t;
  instance.add_listener (fun pid phase ->
      match phase with
      | Dining.Types.Eating ->
          (* Critical section: snapshot now, write at the end. Overlapping
             neighbors (pre-convergence scheduling mistakes) both read
             stale snapshots — the sharing violation the paper tolerates. *)
          t.in_cs.(pid) <- true;
          if Array.exists (fun j -> t.in_cs.(j)) (Cgraph.Graph.neighbors graph pid) then
            t.overlap_races <- t.overlap_races + 1;
          let snapshot = view t pid in
          Sim.Engine.schedule_after engine ~owner:pid ~delay:(sample t.rng step_duration)
            (fun () ->
              if alive t pid && instance.phase pid = Dining.Types.Eating then begin
                if t.protocol.Protocol.enabled snapshot then begin
                  let next = t.protocol.Protocol.step snapshot in
                  if next <> t.states.(pid) then begin
                    t.states.(pid) <- next;
                    t.steps_executed <- t.steps_executed + 1;
                    log_error t
                  end
                end;
                t.in_cs.(pid) <- false;
                instance.stop_eating pid
              end)
      | Dining.Types.Thinking ->
          t.in_cs.(pid) <- false;
          (* The write just landed (or the CS was a no-op); the writer and
             its neighbors may have become enabled or disabled. *)
          consider_neighborhood t pid
      | Dining.Types.Hungry -> ());
  Net.Faults.on_crash faults (fun pid ->
      t.in_cs.(pid) <- false;
      log_error t;
      (* A crash freezes a state; neighbors may now be (still) enabled. *)
      consider_neighborhood t pid);
  for pid = 0 to n - 1 do
    consider t pid
  done;
  t

let inject_fault t ~victims =
  let n = Array.length t.states in
  let live = Array.of_list (List.filter (alive t) (List.init n Fun.id)) in
  if Array.length live > 0 then begin
    Sim.Rng.shuffle t.rng live;
    let hit = min victims (Array.length live) in
    for k = 0 to hit - 1 do
      let pid = live.(k) in
      t.states.(pid) <- t.protocol.Protocol.corrupt t.rng pid
    done;
    log_error t;
    for k = 0 to hit - 1 do
      consider_neighborhood t live.(k)
    done
  end

let schedule_faults t ~at ~victims =
  List.iter
    (fun time ->
      Sim.Engine.schedule t.engine ~at:time (fun () -> inject_fault t ~victims))
    at

let states t = t.states

let outcome t =
  let final_error = error_now t in
  let log = List.rev t.error_log in
  (* converged_at: the time of the last transition into error = 0 that was
     never followed by a non-zero error. *)
  let converged_at =
    if final_error <> 0 then None
    else begin
      let rec scan last = function
        | [] -> last
        | (time, err) :: rest ->
            if err = 0 then scan (match last with None -> Some time | s -> s) rest
            else scan None rest
      in
      scan None log
    end
  in
  {
    converged_at;
    final_error;
    steps_executed = t.steps_executed;
    error_series = List.map (fun (time, err) -> (float_of_int time, float_of_int err)) log;
    overlap_races = t.overlap_races;
  }
