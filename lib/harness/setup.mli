(** Shared scenario wiring used by {!World} and {!Run_stabilize}: builds
    engine, crash plan, detector and daemon instance from a scenario. *)

type detector_state =
  [ `Static of Sim.Time.t | `Oracle of Fd.Oracle.t | `Heartbeat of Fd.Heartbeat.t ]

type parts = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  rng : Sim.Rng.t;
  crashed : (int * Sim.Time.t) list;  (** realised, ascending time; already scheduled *)
  detector : Fd.Detector.t;
  detector_state : detector_state;
  instance : Dining.Instance.t;
  link_stats : Net.Link_stats.t;
  song_pike : Dining.Algorithm.t option;
}

val build :
  ?recorder:Obs.Recorder.t ->
  ?metrics:Obs.Metrics.t ->
  Scenario.t ->
  parts
(** Builds everything and schedules the crash plan. The engine has not
    run yet. [recorder] becomes the engine's recorder, which every
    component of the world emits into (records flow only while it
    traces); [metrics] is threaded to the dining and
    heartbeat overlays' link statistics. The engine runs its sequential loop: the world's
    monitors, detectors and workload are not shard-safe, so it cannot
    fire in parallel (see {!Sim.Engine.set_sharding}). *)

val convergence : parts -> Sim.Time.t * int
(** Post-run detector convergence time and (for heartbeat) mistake count. *)
