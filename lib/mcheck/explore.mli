(** The result of a model-checker search ({!Frontier.explore},
    {!Dpor.explore}).

    Theorem 2 needs no search of its own. Every transition lowers
    {!Model.rank} (a transition that does not is a violation), so the
    state graph is acyclic and every schedule is finite; a complete
    result with [deadlocks = 0] and no violation then shows that every
    schedule which does not crash a hungry process lets it eat. *)

type result = {
  states : int;        (** distinct states visited *)
  transitions : int;   (** transitions expanded *)
  depth : int;         (** deepest level reached *)
  complete : bool;     (** the reachable space was exhausted within bounds *)
  violation : (string * string) option;
      (** (invariant message, state description), if any reachable state
          violates an invariant. A sound run of Algorithm 1 yields [None]. *)
  deadlocks : int;
      (** States in which some live process is hungry and no transition
          other than a crash is enabled ({!Model.stuck}): a schedule that
          stops there, as one that crashes nobody more may, starves that
          diner. Wait-freedom predicts 0; a terminal state where everyone
          is thinking is just a finished run, not a deadlock. *)
  trace : string list option;
      (** When a violation was found: the schedule (transition labels)
          from the initial state to the violating state, replayable with
          {!Replay.run}. For a {!Model.Model_violation} (raised inside a
          delivery handler, or by a transition that does not lower the
          rank) the trace leads to the state being expanded, and the
          description is that state's. *)
}

val pp_result : Format.formatter -> result -> unit
(** [states=… transitions=… depth=… complete=… deadlocks=…] and the
    verdict, on one line. *)
