(** Fork-collection baselines: the classic daemons that Algorithm 1 is
    measured against (experiments E3, E8 and E9).

    Every rule runs the same fork-and-request-token protocol on the
    conflict graph. Each edge has one fork and one request token; a
    hungry process sends the token to ask for a missing fork, and a
    holder that receives the token yields the fork unless the rule
    defers. Every rule defers while eating and grants deferred requests
    when it stops. The rules differ in three places only:

    - {b [Fork_only]} — the doorway ablation: phase 2 of Algorithm 1
      alone. Static greedy colors are priorities: forks start at the
      higher color, and a hungry holder defers iff its color is higher.
      A hungry process requests every missing fork at once. With a ◇P₁
      detector this satisfies ◇WX, but overtaking is unbounded: a
      higher-colored neighbor can snatch the shared fork every time it
      gets hungry (E3: what the doorway buys for Theorem 3).
    - {b [Chandy_misra]} — hygienic dining (Chandy & Misra, 1984), the
      dynamic-priority reference point. Forks are cleaned when sent and
      dirtied when their holder eats; a hungry holder yields a requested
      fork iff it is dirty. Forks start dirty at the lower id, so the
      precedence graph starts, and stays, acyclic: starvation freedom in
      crash-free runs without a doorway.
    - {b [Ordered]} — hierarchical resource allocation (Dijkstra's total
      order as generalised by Lynch, 1980). A hungry process acquires
      its forks one at a time in ascending edge rank (min, max endpoint)
      and locks each until it eats; a holder defers requests only for
      locked forks. The waits-for relation points from lower to higher
      ranks, so it is deadlock-free, at the cost of long waiting chains.
      Forks start at the lower id.

    In every rule the failure detector substitutes suspicion for a
    missing fork, as in Algorithm 1; with {!Fd.Never} each rule is the
    classic crash-intolerant algorithm. *)

type rule = Fork_only | Chandy_misra | Ordered

type t

val create :
  rule:rule ->
  engine:Sim.Engine.t ->
  faults:Net.Faults.t ->
  graph:Cgraph.Graph.t ->
  delay:Net.Delay.t ->
  rng:Sim.Rng.t ->
  detector:Fd.Detector.t ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  t
(** [metrics] is forwarded to the daemon's network overlay so its traffic
    lands in the world's registry, as for {!Dining.Algorithm.create}. *)

val instance : t -> Dining.Instance.t
val network_stats : t -> Net.Link_stats.t

val holds_fork : t -> Dining.Types.pid -> Dining.Types.pid -> bool
(** [holds_fork t i j]: [i] holds the fork it shares with neighbor [j]. *)

val fork_clean : t -> Dining.Types.pid -> Dining.Types.pid -> bool
(** Whether [i]'s fork for [j] is clean; read only by [Chandy_misra]. *)

val progress : t -> Dining.Types.pid -> int
(** [Ordered]: how many forks (in rank order) the process has locked so
    far in its current hungry session; 0 when not hungry. For tests. *)
