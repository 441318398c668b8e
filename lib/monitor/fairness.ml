type overtake = {
  time : Sim.Time.t;
  overtaker : Dining.Types.pid;
  victim : Dining.Types.pid;
  session_start : Sim.Time.t;
  count : int;
}

(* Per-transition state is flat: [counts] is indexed by the directed
   slot (victim, overtaker), so the reset when a victim eats zeroes the
   victim's own CSR row, and [hungry_since] marks "not hungry" with -1
   because 0 is a valid session start. *)
type t = {
  engine : Sim.Engine.t;
  graph : Cgraph.Graph.t;
  faults : Net.Faults.t;
  off : int array; (* CSR offsets, owned by the graph *)
  nbr : Dining.Types.pid array; (* CSR targets, owned by the graph *)
  hungry_since : Sim.Time.t array; (* pid -> start of its hungry session, -1 = not hungry *)
  counts : int array; (* slot (victim, overtaker) -> consecutive count in the victim's session *)
  mutable log : overtake list; (* newest first *)
}

let[@lint.hot] on_phase t pid phase =
  match phase with
  | Dining.Types.Hungry -> t.hungry_since.(pid) <- Sim.Engine.now t.engine
  | Dining.Types.Eating ->
      let lo = t.off.(pid) and hi = t.off.(pid + 1) in
      (* The eater's own hungry session ends: counts against it reset. *)
      t.hungry_since.(pid) <- -1;
      for s = lo to hi - 1 do
        t.counts.(s) <- 0
      done;
      (* And it overtakes every currently hungry live neighbor. *)
      let now = Sim.Engine.now t.engine in
      for s = lo to hi - 1 do
        let victim = t.nbr.(s) in
        let session_start = t.hungry_since.(victim) in
        if session_start >= 0 && not (Net.Faults.is_crashed t.faults victim) then begin
          let k = Cgraph.Graph.dir_index_opt t.graph victim pid in
          let count = t.counts.(k) + 1 in
          t.counts.(k) <- count;
          (* The overtake log is this monitor's output, kept by design:
             one record per overtake. *)
          t.log <-
            ({ time = now; overtaker = pid; victim; session_start; count } :: t.log
            [@lint.allow "hot-path-alloc"])
        end
      done
  | Dining.Types.Thinking -> t.hungry_since.(pid) <- -1

let attach engine graph faults (instance : Dining.Instance.t) =
  let t =
    {
      engine;
      graph;
      faults;
      off = Cgraph.Graph.csr_offsets graph;
      nbr = Cgraph.Graph.csr_targets graph;
      hungry_since = Array.make (Cgraph.Graph.n graph) (-1);
      counts = Array.make (Cgraph.Graph.dir_count graph) 0;
      log = [];
    }
  in
  instance.add_listener (on_phase t);
  t

let overtakes t = List.rev t.log

let max_consecutive t = List.fold_left (fun acc o -> max acc o.count) 0 t.log

let max_consecutive_for_sessions_from t time =
  List.fold_left (fun acc o -> if o.session_start >= time then max acc o.count else acc) 0 t.log

(* Suffix form: only overtake events at or after [time] count, but a
   victim's session may have started earlier (a starved victim's single
   session spans the whole run — exactly the case the sessions-from
   variant cannot see). Within one (overtaker, victim, session) group
   the events after the cutoff are consecutive by construction, so the
   group's post-cutoff cardinality is its consecutive count. *)
let max_consecutive_after t time =
  let key (o : overtake) = (o.overtaker, o.victim, o.session_start) in
  let post = List.filter (fun o -> o.time >= time) t.log in
  let sorted = List.sort (fun a b -> compare (key a) (key b)) post in
  let rec go best current run = function
    | [] -> max best run
    | o :: rest ->
        if current = Some (key o) then go best current (run + 1) rest
        else go (max best run) (Some (key o)) 1 rest
  in
  go 0 None 0 sorted

let windowed_max t ~window ~horizon =
  if window <= 0 then invalid_arg "Fairness.windowed_max: window must be positive";
  let buckets = (horizon / window) + 1 in
  let maxima = Array.make buckets 0 in
  List.iter
    (fun o ->
      if o.time <= horizon then begin
        let b = o.time / window in
        if o.count > maxima.(b) then maxima.(b) <- o.count
      end)
    t.log;
  Array.to_list (Array.mapi (fun b m -> (float_of_int (b * window), float_of_int m)) maxima)
