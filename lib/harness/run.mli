(** One-shot scenario execution: build a {!World}, run it to the horizon,
    return the report. Kept as a façade over {!World} for the experiment
    suite and tests; new code that wants to interleave probes with
    virtual time should use {!World.create}/{!World.advance} directly. *)

type report = World.report = {
  scenario : Scenario.t;
  graph : Cgraph.Graph.t;
  crashed : (int * Sim.Time.t) list;
      (** Realised crash schedule, ascending time. *)
  convergence : Sim.Time.t;
      (** Time after which the detector's output is settled: exact for
          scripted detectors, measured (last false suspicion + 1) for the
          heartbeat detector, 0 for Never/Perfect. *)
  detector_mistakes : int;
      (** False suspicions committed (heartbeat detector only; scripted
          windows are counted from the scenario). *)
  exclusion : Monitor.Exclusion.t;
  fairness : Monitor.Fairness.t;
  response : Monitor.Response.t;
  phases : Monitor.Phases.t;
      (** Doorway-vs-fork wait breakdown (Song-Pike daemons only; empty
          for the baselines, which emit no doorway events). *)
  link_stats : Net.Link_stats.t;  (** Dining-layer channels only. *)
  total_eats : int;
  eats_per_process : int array;
  hungry_transitions : int;
  invariant_error : string option;
      (** First executable-lemma failure, if any (expected [None]). *)
  max_footprint_bits : int option;  (** Song-Pike only: max over processes. *)
  max_message_bits : int option;    (** Song-Pike only. *)
  events_processed : int;
  horizon : Sim.Time.t;
  metrics : Obs.Metrics.t;
      (** The world's metrics registry — see {!World.report}. *)
}

val run :
  ?recorder:Obs.Recorder.t ->
  ?metrics:Obs.Metrics.t ->
  Scenario.t ->
  report
(** Execute the scenario to its horizon. Deterministic in the scenario. *)

val throughput : report -> float
(** Eats per 1000 ticks. *)

val starved : report -> older_than:int -> Dining.Types.pid list
(** Live processes still hungry at the horizon whose session is older than
    the given age — wait-freedom violations at that patience level. *)
