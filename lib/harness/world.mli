(** One self-contained simulated universe.

    A [World.t] owns {e everything} a run mutates — virtual-time engine,
    seeded RNG tree, network and fault plan, failure detector, daemon
    instance, monitors and workload — and nothing else: no module under
    [lib/sim], [lib/net], [lib/core] or [lib/detector] keeps top-level
    mutable state, so two worlds never share a mutable value. That
    share-nothing guarantee is what lets {!Exec.Pool} run many worlds on
    concurrent domains while keeping every report bit-identical to a
    sequential execution of the same scenarios.

    {!run} is the pure [Scenario.t -> report] entry point; the
    create/advance/report triple exposes the same run incrementally for
    callers that want to interleave their own probes with virtual time. *)

type t

type report = {
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
      (** Session latencies and their doorway-vs-fork split (the split
          is Song-Pike only; empty for the baselines, which have no
          doorway). *)
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
      (** The world's metrics registry: [net.*] traffic counters
          (dining + heartbeat overlays aggregated), [daemon.*] counters
          and wait histograms, [engine.*] / [detector.*] gauges. *)
}

val create :
  ?recorder:Obs.Recorder.t ->
  ?metrics:Obs.Metrics.t ->
  Scenario.t ->
  t
(** Build a fresh world: engine, network, detector, daemon, monitors and
    workload, with the crash plan scheduled and the invariant watcher
    armed. Virtual time has not advanced yet. [recorder] becomes the
    engine's recorder, the one every component of the world emits into
    (capture it with {!Obs.Recorder.collecting} for JSONL export);
    [metrics] is the registry every component registers into (default: a
    fresh private one, available via the report). *)

val advance : t -> until:Sim.Time.t -> unit
(** Process events up to and including virtual time [until]. Advancing in
    stages is equivalent to one advance to the last time. *)

val now : t -> Sim.Time.t
(** Current virtual time of this world's engine. *)

val graph : t -> Cgraph.Graph.t

val fairness : t -> Monitor.Fairness.t
val response : t -> Monitor.Response.t
(** The world's monitors, for registering series readers and callbacks
    between {!create} and the first {!advance} (see
    {!Monitor.Fairness.windowed_max}, {!Monitor.Response.on_served}). *)

val link_stats : t -> Net.Link_stats.t
(** The dining-layer channel counters, for sampling cumulative traffic
    (e.g. {!Net.Link_stats.total_sends_to}) between staged advances. *)

val report : t -> report
(** Run the final invariant check and assemble the report for whatever
    has executed so far. Normally called once [advance] reached the
    scenario horizon. *)

val run :
  ?recorder:Obs.Recorder.t ->
  ?metrics:Obs.Metrics.t ->
  Scenario.t ->
  report
(** [create |> advance ~until:horizon |> report] — deterministic in the
    scenario: same scenario, same report, on any domain. *)

val throughput : report -> float
(** Eats per 1000 ticks. *)

val starved : report -> older_than:int -> Dining.Types.pid list
(** Live processes still hungry at the horizon whose session is older
    than the given age — wait-freedom violations at that patience
    level. *)
