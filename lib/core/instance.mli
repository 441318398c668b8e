(** Uniform handle on a running dining-based daemon.

    The experiment harness, monitors and the self-stabilization scheduler
    drive every daemon implementation (Algorithm 1 and the baselines)
    through this record, so all of them can be compared under identical
    workloads. *)

type t = {
  name : string;
  become_hungry : Types.pid -> unit;
      (** Action 1: a thinking process requests scheduling. No-op unless
          the process is thinking and live. *)
  stop_eating : Types.pid -> unit;
      (** Ends the critical section (correct processes eat for finite
          time). No-op unless the process is eating and live. *)
  phase : Types.pid -> Types.phase;
  eats : Types.pid -> int;
      (** How many times the process has begun eating: the daemon's own
          count, so a caller that wants per-process eats keeps none. *)
  add_listener : (Types.pid -> Types.phase -> unit) -> unit;
      (** Phase-transition notifications, fired synchronously (in virtual
          time) at each transition, after the state change. *)
  add_doorway_listener : (Types.pid -> unit) -> unit;
      (** Doorway-entry notifications (Algorithm 1's Action 5), fired
          synchronously when a hungry process enters the doorway, in
          registration order. Daemons without a doorway never fire
          them. *)
  check_invariants : unit -> unit;
      (** Raises {!Types.Invariant_violation} if a structural invariant of
          the implementation fails; implementations without executable
          invariants make this a no-op. *)
}
