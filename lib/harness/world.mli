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
          (dining + heartbeat overlays aggregated), the [daemon.*] wait
          histograms, and the [daemon.eats], [daemon.hungry_sessions],
          [engine.*] and [detector.*] gauges set by {!report}. *)
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

(** {2 Theorems 1–3, measured}

    Each theorem promises its property {e eventually}. These functions
    are the one definition of from when and in what form: the
    [Fuzz.Property] oracles, the reproduction tables, [Batch], the CLI
    and the tests all read a theorem through them. *)

val settle_cutoff : report -> Sim.Time.t
(** The time after which Theorems 1 and 3 require their property: the
    detector's convergence plus [horizon/16] when it converges inside
    the horizon (a false suspicion committed just before it settles
    still has its consequences in flight), the last third of the run
    otherwise. *)

val late_violations : report -> int
(** Theorem 1 (◇WX): exclusion violations at or after {!settle_cutoff};
    the theorem says 0. *)

val late_overtakes : report -> int
(** Theorem 3: the most consecutive overtakes of one waiting process by
    one neighbour {e occurring} at or after {!settle_cutoff}, within one
    hungry session of the victim
    ({!Monitor.Fairness.max_consecutive_after}) — the suffix form, so a
    starved victim's run-spanning session is not exempt. *)

val overtake_bound : report -> int
(** Theorem 3's bound, [acks_per_session + 1]: 2 for the paper's
    Algorithm 1, [m + 1] for an ack budget of [m] (E11). *)

val patience : report -> Sim.Time.t
(** Theorem 2's stand-in for "eventually served": [max 1 (horizon/4)]. *)

val starved : report -> Dining.Types.pid list
(** Theorem 2 (wait-freedom): live processes still hungry at the horizon
    whose session is older than {!patience}, ascending; the theorem says
    none. *)
