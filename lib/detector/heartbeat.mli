(** Message-based implementation of ◇P₁ by heartbeats with adaptive
    timeouts, running over the simulated network.

    Every correct process sends a heartbeat to each neighbor every
    [period] ticks. An observer suspects a neighbor when no heartbeat has
    arrived for its current per-neighbor timeout; if a heartbeat from a
    suspected neighbor later arrives (a false positive was made), the
    neighbor is unsuspected and the timeout is increased by [bump].

    Under the partial-synchrony delay model this satisfies ◇P₁:
    completeness because a crashed neighbor stops sending and the timeout
    eventually fires for good, and eventual accuracy because after finitely
    many mistakes the timeout exceeds [period + Delta] (the post-GST delay
    bound), after which no further false positives occur.

    The heartbeat traffic runs on its own network overlay so that
    dining-layer channel statistics (Section 7 bounds) are unaffected. *)

type t

val create :
  engine:Sim.Engine.t ->
  faults:Net.Faults.t ->
  graph:Cgraph.Graph.t ->
  delay:Net.Delay.t ->
  rng:Sim.Rng.t ->
  period:int ->
  initial_timeout:int ->
  bump:int ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  t * Detector.t
(** All three parameters must be positive. May be created at any
    virtual time: first beats and timeout checks are
    offset from [Engine.now] at creation. [metrics] is forwarded to the
    heartbeat overlay's link statistics (heartbeat and dining overlays
    sharing a registry aggregate into the same [net.*] counters). *)

val last_mistake : t -> Sim.Time.t option
(** Start time of the most recent false suspicion (target had not crashed
    when suspected), if any. After a run, this is a lower bound on the
    detector's convergence time. *)

val mistakes : t -> int
(** Total number of false suspicions committed so far. *)

val timeout : t -> observer:int -> target:int -> int
(** Current adaptive timeout for a pair (for introspection in tests). *)
