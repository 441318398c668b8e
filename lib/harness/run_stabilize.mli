(** Runs a self-stabilizing protocol on top of a scenario's daemon
    (experiment E7 / figure F4). The dining workload is replaced by the
    stabilization scheduler: processes get hungry exactly when they have
    an enabled guarded command. *)

type protocol_kind = Coloring | Token_ring | Matching | Bfs_tree

type spec = {
  scenario : Scenario.t;
      (** Provides topology, seed, delays, detector, daemon and crashes.
          The scenario's workload field is ignored. [Token_ring] requires a
          ring topology. *)
  protocol : protocol_kind;
  transient_faults : (Sim.Time.t * int) list;
      (** (time, victims): transient-fault injections corrupting that many
          random live states. *)
}

type report = {
  spec : spec;
  outcome : Stabilize.Scheduler.outcome;
  convergence : Sim.Time.t;  (** detector convergence, as in {!World.report} *)
  crashed : (int * Sim.Time.t) list;
  total_eats : int;
  invariant_error : string option;
}

val protocol_name : protocol_kind -> string
val run : spec -> report
