(** Executes a self-stabilizing protocol on top of a dining daemon.

    The daemon adapter realises the paper's motivating application:

    - a process becomes hungry whenever it has an enabled guarded command;
    - when scheduled to eat, it snapshots its neighborhood, and at the end
      of its critical section writes the command's result and exits;
    - every state write re-evaluates the enabledness of the writer and its
      neighbors (shared-memory semantics).

    The snapshot-at-entry / write-at-exit model makes the daemon's
    scheduling mistakes observable: if two neighbors eat concurrently
    (possible only before ◇P₁ converges, by Theorem 1), both act on stale
    reads — exactly the "sharing violation that precipitates at worst a
    transient fault" the paper tolerates, because finitely many such
    mistakes cannot prevent convergence once the daemon is wait-free.

    Transient faults can be injected on a schedule; each corrupts a set of
    random processes' states. *)

type t

type outcome = {
  converged_at : Sim.Time.t option;
      (** Start of the final suffix in which the configuration remained
          legitimate through the horizon; [None] if not converged. *)
  final_error : int;
  steps_executed : int;  (** guarded commands executed (eat sessions that wrote) *)
  error_series : (float * float) list;
      (** (time, error measure) sampled at every change — figure F4. *)
  overlap_races : int;
      (** Critical sections that overlapped a neighbor's (scheduling
          mistakes made visible to the protocol layer). *)
}

val attach :
  engine:Sim.Engine.t ->
  faults:Net.Faults.t ->
  graph:Cgraph.Graph.t ->
  rng:Sim.Rng.t ->
  protocol:Protocol.t ->
  Dining.Instance.t ->
  t
(** Initialises states with [protocol.init], subscribes to the instance
    and schedules the initial hungry transitions. A critical section
    lasts 5 to 20 ticks; an enabled process gets hungry 1 to 10 ticks
    after it becomes enabled. *)

val inject_fault : t -> victims:int -> unit
(** Corrupt the states of [victims] random live processes now. *)

val schedule_faults : t -> at:Sim.Time.t list -> victims:int -> unit
(** Inject a [victims]-sized transient fault at each listed time. *)

val states : t -> int array
(** Current configuration (aliased; do not mutate). *)

val error_now : t -> int

val outcome : t -> outcome
(** Compute the outcome once the engine has finished running; [converged_at]
    means "remained legitimate from that time through the end of the run". *)
