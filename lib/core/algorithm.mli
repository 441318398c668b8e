(** Algorithm 1 of Song & Pike (DSN 2007): the wait-free, eventually
    2-bounded-waiting dining daemon for eventual weak exclusion.

    Structure, following the paper:

    - {b Phase 1 (asynchronous doorway, Actions 2–5).} A hungry process
      pings every neighbor and enters the doorway once it holds, for each
      neighbor, either a doorway ack or a suspicion from ◇P₁. A neighbor
      grants at most one ack per hungry session (the [replied] bit), which
      is what sharpens the doorway into {e eventual 2-bounded waiting}.
    - {b Phase 2 (fork collection, Actions 6–8).} Inside the doorway, the
      process requests every missing fork by sending the edge's token.
      Conflicts between two insiders are settled by static color priority;
      outsiders always yield. The process eats (Action 9) once it holds,
      for each neighbor, either the shared fork or a suspicion.
    - {b Exit (Action 10).} On leaving the critical section the process
      exits the doorway and grants every deferred fork request and
      deferred ack.

    The implementation is event-driven: guards are re-evaluated exactly
    when a message arrives, a phase changes, or the detector's local output
    changes (the detector's [subscribe] hook), which realises "every
    correct process takes infinitely many steps" without polling.

    Proven lemmas of the paper are carried as executable invariants, which
    {!check_invariants} verifies over the global state:

    - Lemma 1.1/1.2 — per-edge fork (and token) conservation: exactly one
      fork per edge, counting holders, in-flight messages, and messages
      absorbed by crashed processes; a fork-request recipient holds the
      requested fork.
    - Lemma 2.2 — at most one pending ping per ordered neighbor pair: the
      [pinged] bit matches the pipeline state (ping in flight, deferred at
      the peer, or ack in flight).
    - Section 7 — at most 4 dining messages in transit per edge.
    - The guard hints (the implementation's, not the paper's): a clear
      [ping_hint] or [fork_hint] in a process's header means no slot of
      its row is a candidate for Action 2 or Action 6 respectively. *)

type t

val create :
  engine:Sim.Engine.t ->
  faults:Net.Faults.t ->
  graph:Cgraph.Graph.t ->
  delay:Net.Delay.t ->
  rng:Sim.Rng.t ->
  detector:Fd.Detector.t ->
  ?colors:int array ->
  ?metrics:Obs.Metrics.t ->
  ?acks_per_session:int ->
  unit ->
  t
(** [metrics] is forwarded to the dining overlay's link statistics so its
    traffic lands in the world's registry. [colors] must be a proper
    coloring of [graph] (defaults to
    {!Cgraph.Coloring.greedy}); higher color = higher priority, per the
    paper. [acks_per_session] is the doorway fairness knob: a hungry
    process grants at most that many acks to each neighbor per hungry
    session. The paper's Algorithm 1 is the default 1, which yields
    eventual 2-bounded waiting; a budget of m yields eventual
    (m+1)-bounded waiting, trading fairness for doorway throughput
    (experiment E11). Creates the dining layer's own network overlay.
    Phase transitions and the ["enter_doorway"] mark go to the engine's
    recorder ({!Sim.Engine.recorder}) when it traces; monitors listen
    through the instance's [add_listener] and [add_doorway_listener]
    instead (see {!instance}); the latter fires at the same point as the
    mark. Callers drive a process through the instance's
    [become_hungry] and [stop_eating]. *)

val inside_doorway : t -> Types.pid -> bool
val color : t -> Types.pid -> int
val holds_fork : t -> Types.pid -> Types.pid -> bool
val holds_token : t -> Types.pid -> Types.pid -> bool
val eat_count : t -> Types.pid -> int
val total_eats : t -> int

val check_invariants : t -> unit
(** Raises {!Types.Invariant_violation} on any violated executable lemma;
    see the module description for the list. *)

val lane_sub : int -> int -> int
(** [lane_sub a b] subtracts [b] from [a] lane by lane, the arithmetic
    {!check_invariants} runs on the slot counters. Both are 32-bit words
    ([0 <= w < 2{^32}]) of four 8-bit lanes, lane k (byte k, least
    significant first) holding a count for message kind k
    ({!Types.message_kind_index}); lane k of the result is
    [(a_k - b_k) mod 256], with no borrow between lanes. *)

val lane_sum : int -> int
(** The sum of the four 8-bit lanes of a 32-bit word (0 to 1020). *)

val network_stats : t -> Net.Link_stats.t
(** Channel statistics of the dining overlay (excludes any failure
    detector traffic). *)

val footprint_bits : t -> Types.pid -> int
(** Logical size of a process's dining state in bits:
    2 (phase) + 1 (doorway) + ceil(log2 colors) + 6 * degree — the paper's
    log2(delta) + 6*delta + c bound. *)

val instance : t -> Instance.t
(** The uniform daemon handle for this instance. *)

val pp_process : t -> Format.formatter -> Types.pid -> unit
(** One-line debug dump of a process: phase, doorway, and per-neighbor
    pinged/ack/replied/deferred/fork/token bits, e.g.
    [p2 hungry inside c=1 | 0:PF 3:at]. Upper-case letters mark set bits
    (P pinged, A ack, R replied, D deferred, F fork, T token). *)

val pp_global : t -> Format.formatter -> unit -> unit
(** Multi-line dump of every process (for traces and failing tests). *)

val max_message_bits : t -> int
(** Largest payload, in bits, of any message type this instance can send
    (per {!Types.message_bits}). *)
