type t = {
  scenario : Scenario.t;
  parts : Setup.parts;
  metrics : Obs.Metrics.t;
  exclusion : Monitor.Exclusion.t;
  fairness : Monitor.Fairness.t;
  response : Monitor.Response.t;
  workload : Workload.t;
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
  (* Per-process eats are the daemon's own counts (Song–Pike keeps them
     in its headers), read once here rather than kept twice; the
     [daemon.*] gauges publish them and the workload's hungry count. *)
  let eats_per_process = Array.init n instance.eats in
  let total_eats = Array.fold_left ( + ) 0 eats_per_process in
  let hungry_transitions = Workload.hungry_transitions w.workload in
  Obs.Metrics.set (Obs.Metrics.gauge w.metrics "daemon.eats") total_eats;
  Obs.Metrics.set (Obs.Metrics.gauge w.metrics "daemon.hungry_sessions") hungry_transitions;
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
    total_eats;
    eats_per_process;
    hungry_transitions;
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

(* Theorems 1–3 promise their properties eventually. The functions
   below are the one place that says from when and in what form; every
   table, report line, oracle and test reads a theorem through them. *)

(* The detector's convergence when it settles inside the horizon, and
   the last third of the run otherwise (an Unreliable detector reports
   convergence at infinity — a sound run would still be clean in the
   tail, so a dirty tail is exactly the violation). Finite convergence
   gets a horizon/16 grace window: a false suspicion committed just
   before the detector settles still has its consequences (a yielded
   fork, a granted overlap) in flight, and the theorems only promise the
   properties eventually after settling. *)
let settle_cutoff r =
  if Sim.Time.is_finite r.convergence && r.convergence < r.horizon then
    r.convergence + (r.horizon / 16)
  else 2 * r.horizon / 3

let late_violations r = Monitor.Exclusion.count_after r.exclusion (settle_cutoff r)

(* Suffix form: overtakes occurring after the cutoff, whatever the
   victim's session start — a starved victim's one session spans the
   run and must not be exempt. *)
let late_overtakes r = Monitor.Fairness.max_consecutive_after r.fairness (settle_cutoff r)
let overtake_bound r = r.scenario.acks_per_session + 1
let patience r = max 1 (r.horizon / 4)

let starved r =
  let patience = patience r in
  List.filter_map
    (fun (pid, started) -> if r.horizon - started > patience then Some pid else None)
    (Monitor.Response.open_sessions r.response)
