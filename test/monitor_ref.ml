(* Log-based reference monitors: the oracle the streaming monitors in
   lib/monitor are differentially tested against. Each keeps one record
   per overtake, session or wait and answers every query by walking (and
   where needed sorting) its whole log — the straightforward reading of
   each query's definition, at a cost that grows with the run. *)

module Fairness = struct
  type t = {
    engine : Sim.Engine.t;
    graph : Cgraph.Graph.t;
    faults : Net.Faults.t;
    hungry_since : Sim.Time.t array; (* -1 = not hungry *)
    counts : int array; (* directed slot (victim, overtaker) -> consecutive count *)
    mutable log : Monitor.Fairness.overtake list; (* newest first *)
  }

  let on_phase t pid phase =
    match phase with
    | Dining.Types.Hungry -> t.hungry_since.(pid) <- Sim.Engine.now t.engine
    | Dining.Types.Eating ->
        t.hungry_since.(pid) <- -1;
        Array.iter
          (fun victim -> t.counts.(Cgraph.Graph.dir_index_opt t.graph pid victim) <- 0)
          (Cgraph.Graph.neighbors t.graph pid);
        let now = Sim.Engine.now t.engine in
        Array.iter
          (fun victim ->
            let session_start = t.hungry_since.(victim) in
            if session_start >= 0 && not (Net.Faults.is_crashed t.faults victim) then begin
              let k = Cgraph.Graph.dir_index_opt t.graph victim pid in
              let count = t.counts.(k) + 1 in
              t.counts.(k) <- count;
              t.log <- { Monitor.Fairness.time = now; overtaker = pid; victim; session_start; count } :: t.log
            end)
          (Cgraph.Graph.neighbors t.graph pid)
    | Dining.Types.Thinking -> t.hungry_since.(pid) <- -1

  let attach engine graph faults (instance : Dining.Instance.t) =
    let t =
      {
        engine;
        graph;
        faults;
        hungry_since = Array.make (Cgraph.Graph.n graph) (-1);
        counts = Array.make (Cgraph.Graph.dir_count graph) 0;
        log = [];
      }
    in
    instance.add_listener (on_phase t);
    t

  let overtakes t = List.rev t.log

  let max_consecutive t =
    List.fold_left (fun acc (o : Monitor.Fairness.overtake) -> max acc o.count) 0 t.log

  let max_consecutive_for_sessions_from t time =
    List.fold_left
      (fun acc (o : Monitor.Fairness.overtake) -> if o.session_start >= time then max acc o.count else acc)
      0 t.log

  (* Group the post-cutoff overtakes by (overtaker, victim, session
     start) with a sort; the largest group is the answer. *)
  let max_consecutive_after t time =
    let key (o : Monitor.Fairness.overtake) = (o.overtaker, o.victim, o.session_start) in
    let post = List.filter (fun (o : Monitor.Fairness.overtake) -> o.time >= time) t.log in
    let sorted = List.sort (fun a b -> compare (key a) (key b)) post in
    let rec go best current run = function
      | [] -> max best run
      | o :: rest ->
          if current = Some (key o) then go best current (run + 1) rest
          else go (max best run) (Some (key o)) 1 rest
    in
    go 0 None 0 sorted

  let windowed_max t ~window ~horizon =
    let maxima = Array.make ((horizon / window) + 1) 0 in
    List.iter
      (fun (o : Monitor.Fairness.overtake) ->
        if o.time <= horizon then begin
          let b = o.time / window in
          if o.count > maxima.(b) then maxima.(b) <- o.count
        end)
      t.log;
    Array.to_list (Array.mapi (fun b m -> (float_of_int (b * window), float_of_int m)) maxima)
end

module Response = struct
  type t = {
    engine : Sim.Engine.t;
    faults : Net.Faults.t;
    open_since : Sim.Time.t array; (* -1 = none *)
    mutable completed : Monitor.Response.session list; (* newest first *)
  }

  let on_phase t pid phase =
    match phase with
    | Dining.Types.Hungry -> t.open_since.(pid) <- Sim.Engine.now t.engine
    | Dining.Types.Eating ->
        let started = t.open_since.(pid) in
        if started >= 0 then begin
          t.open_since.(pid) <- -1;
          t.completed <- { Monitor.Response.pid; started; served = Sim.Engine.now t.engine } :: t.completed
        end
    | Dining.Types.Thinking -> ()

  let attach engine faults (instance : Dining.Instance.t) =
    let t = { engine; faults; open_since = Array.make (Net.Faults.n faults) (-1); completed = [] } in
    instance.add_listener (on_phase t);
    t

  let completed t = List.rev t.completed

  let durations t =
    List.rev_map (fun (s : Monitor.Response.session) -> s.served - s.started) t.completed

  let summary t = Stats.Summary.of_ints (durations t)

  let open_sessions t =
    List.filter
      (fun (pid, _) -> not (Net.Faults.is_crashed t.faults pid))
      (List.filter_map
         (fun pid -> if t.open_since.(pid) >= 0 then Some (pid, t.open_since.(pid)) else None)
         (List.init (Array.length t.open_since) Fun.id))

  let served_count t = List.length t.completed

  let response_series t ~bucket =
    let sums = Hashtbl.create 32 in
    List.iter
      (fun (s : Monitor.Response.session) ->
        let b = s.served / bucket in
        let total, count = Option.value (Hashtbl.find_opt sums b) ~default:(0, 0) in
        Hashtbl.replace sums b (total + (s.served - s.started), count + 1))
      t.completed;
    Hashtbl.fold
      (fun b (total, count) acc ->
        (float_of_int (b * bucket), float_of_int total /. float_of_int count) :: acc)
      sums []
    |> List.sort compare
end

module Phases = struct
  type t = {
    engine : Sim.Engine.t;
    hungry_at : Sim.Time.t array; (* -1 = none *)
    entered_at : Sim.Time.t array; (* -1 = none *)
    mutable doorway : int list; (* newest first *)
    mutable fork : int list;
  }

  let on_doorway t pid =
    let started = t.hungry_at.(pid) in
    if started >= 0 then begin
      let now = Sim.Engine.now t.engine in
      t.entered_at.(pid) <- now;
      t.doorway <- (now - started) :: t.doorway
    end

  let on_phase t pid phase =
    match phase with
    | Dining.Types.Hungry -> t.hungry_at.(pid) <- Sim.Engine.now t.engine
    | Dining.Types.Eating ->
        t.hungry_at.(pid) <- -1;
        let entered = t.entered_at.(pid) in
        if entered >= 0 then begin
          t.entered_at.(pid) <- -1;
          t.fork <- (Sim.Engine.now t.engine - entered) :: t.fork
        end
    | Dining.Types.Thinking ->
        t.hungry_at.(pid) <- -1;
        t.entered_at.(pid) <- -1

  let attach ~n engine (instance : Dining.Instance.t) =
    let t =
      { engine; hungry_at = Array.make n (-1); entered_at = Array.make n (-1); doorway = []; fork = [] }
    in
    instance.add_listener (on_phase t);
    instance.add_doorway_listener (on_doorway t);
    t

  let doorway_waits t = List.rev t.doorway
  let fork_waits t = List.rev t.fork
  let doorway_summary t = Stats.Summary.of_ints t.doorway
  let fork_summary t = Stats.Summary.of_ints t.fork
end
