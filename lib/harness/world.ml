type t = {
  scenario : Scenario.t;
  parts : Setup.parts;
  metrics : Obs.Metrics.t;
  exclusion : Monitor.Exclusion.t;
  fairness : Monitor.Fairness.t;
  response : Monitor.Response.t;
  workload : Workload.t;
  eats_per_process : int array;
  invariant_error : string option ref;
}

type report = {
  scenario : Scenario.t;
  graph : Cgraph.Graph.t;
  crashed : (int * Sim.Time.t) list;
  convergence : Sim.Time.t;
  detector_mistakes : int;
  exclusion : Monitor.Exclusion.t;
  fairness : Monitor.Fairness.t;
  response : Monitor.Response.t;
  link_stats : Net.Link_stats.t;
  total_eats : int;
  eats_per_process : int array;
  hungry_transitions : int;
  invariant_error : string option;
  max_footprint_bits : int option;
  max_message_bits : int option;
  events_processed : int;
  horizon : Sim.Time.t;
  metrics : Obs.Metrics.t;
}

(* Periodically run the daemon's executable-lemma check; stop after the
   first failure so the report carries the earliest message. *)
let watch_invariants ~engine ~horizon ~every (instance : Dining.Instance.t) =
  let error = ref None in
  let kind = ref 0 in
  let next () =
    Sim.Engine.(post engine ~kind:!kind ~owner:(-1) ~at:(Sim.Time.add (now engine) every) 0 0)
  in
  kind :=
    Sim.Engine.register engine (fun _ _ _ ->
        if !error = None then begin
          (try instance.check_invariants ()
           with Dining.Types.Invariant_violation msg -> error := Some msg);
          if !error = None && Sim.Engine.now engine < horizon then next ()
        end);
  next ();
  error

let create ?recorder ?(metrics = Obs.Metrics.create ()) (s : Scenario.t) =
  let parts = Setup.build ?recorder ~metrics s in
  let { Setup.engine; faults; graph; rng; instance; _ } = parts in
  let n = Cgraph.Graph.n graph in
  let exclusion = Monitor.Exclusion.attach engine graph faults instance in
  let fairness = Monitor.Fairness.attach engine graph faults instance in
  let response = Monitor.Response.attach ~metrics engine faults instance in
  let eats_per_process = Array.make n 0 in
  let m_eats = Obs.Metrics.counter metrics "daemon.eats" in
  let m_hungry = Obs.Metrics.counter metrics "daemon.hungry_sessions" in
  instance.add_listener (fun pid phase ->
      match phase with
      | Dining.Types.Eating ->
          eats_per_process.(pid) <- eats_per_process.(pid) + 1;
          Obs.Metrics.incr m_eats
      | Dining.Types.Hungry -> Obs.Metrics.incr m_hungry
      | Dining.Types.Thinking -> ());
  let workload =
    Workload.attach ~engine ~faults ~n
      ~rng:(Sim.Rng.split_named rng "workload")
      ~workload:s.workload instance
  in
  let invariant_error =
    match s.check_every with
    | None -> ref None
    | Some every -> watch_invariants ~engine ~horizon:s.horizon ~every instance
  in
  {
    scenario = s;
    parts;
    metrics;
    exclusion;
    fairness;
    response;
    workload;
    eats_per_process;
    invariant_error;
  }

let now (w : t) = Sim.Engine.now w.parts.engine
let graph (w : t) = w.parts.graph
let fairness (w : t) = w.fairness
let response (w : t) = w.response
let link_stats (w : t) = w.parts.link_stats
let advance (w : t) ~until = Sim.Engine.run w.parts.engine ~until

let report (w : t) =
  let s = w.scenario in
  let { Setup.graph; crashed; instance; link_stats; song_pike; engine; _ } = w.parts in
  let n = Cgraph.Graph.n graph in
  (if !(w.invariant_error) = None then
     try instance.check_invariants ()
     with Dining.Types.Invariant_violation msg -> w.invariant_error := Some msg);
  let convergence, detector_mistakes = Setup.convergence w.parts in
  (* Point-in-time levels, refreshed on every report. *)
  Obs.Metrics.set (Obs.Metrics.gauge w.metrics "engine.events") (Sim.Engine.processed engine);
  Obs.Metrics.set (Obs.Metrics.gauge w.metrics "engine.pending") (Sim.Engine.pending engine);
  Obs.Metrics.set (Obs.Metrics.gauge w.metrics "detector.mistakes") detector_mistakes;
  let max_footprint_bits, max_message_bits =
    match song_pike with
    | None -> (None, None)
    | Some algo ->
        let fp = ref 0 in
        for pid = 0 to n - 1 do
          fp := max !fp (Dining.Algorithm.footprint_bits algo pid)
        done;
        (Some !fp, Some (Dining.Algorithm.max_message_bits algo))
  in
  {
    scenario = s;
    graph;
    crashed;
    convergence;
    detector_mistakes;
    exclusion = w.exclusion;
    fairness = w.fairness;
    response = w.response;
    link_stats;
    total_eats = Array.fold_left ( + ) 0 w.eats_per_process;
    eats_per_process = w.eats_per_process;
    hungry_transitions = Workload.hungry_transitions w.workload;
    invariant_error = !(w.invariant_error);
    max_footprint_bits;
    max_message_bits;
    events_processed = Sim.Engine.processed engine;
    horizon = s.horizon;
    metrics = w.metrics;
  }

let run ?recorder ?metrics (s : Scenario.t) =
  let w = create ?recorder ?metrics s in
  advance w ~until:s.horizon;
  report w

let throughput r = 1000.0 *. float_of_int r.total_eats /. float_of_int (max 1 r.horizon)

let starved r ~older_than =
  List.filter_map
    (fun (pid, started) -> if r.horizon - started > older_than then Some pid else None)
    (Monitor.Response.open_sessions r.response)
