(** Results of the model checker's searches, and the searches that are
    not the breadth-first {!Frontier.explore}: the liveness check
    {!progress} and the Monte-Carlo {!random_walk}. *)

type result = {
  states : int;        (** distinct states visited *)
  transitions : int;   (** transitions expanded *)
  depth : int;         (** deepest level reached *)
  complete : bool;     (** the reachable space was exhausted within bounds *)
  violation : (string * string) option;
      (** (invariant message, state description), if any reachable state
          violates an invariant. A sound run of Algorithm 1 yields [None]. *)
  deadlocks : int;
      (** Terminal states (no outgoing transitions) in which some live
          process is still hungry — a stuck diner no event can ever wake.
          Wait-freedom predicts 0; a terminal state where everyone is
          thinking is just a finished run, not a deadlock. *)
  trace : string list option;
      (** When a violation was found: the schedule (transition labels)
          from the initial state to the violating state, replayable with
          {!Replay.run}. For a violation raised inside a delivery
          handler the trace leads to the state being expanded. *)
}

val pp_result : Format.formatter -> result -> unit
(** [states=… transitions=… depth=… complete=… deadlocks=…] and the
    verdict, on one line. *)

type progress_result = {
  reachable : int;       (** states in the explored graph *)
  hungry_states : int;   (** states where the probed process is hungry and live *)
  stuck_states : int;    (** hungry-live states with NO continuation in which the
                             process ever eats — a liveness bug; expect 0 *)
  progress_complete : bool; (** the graph was fully explored within the cap *)
}

val progress : ?max_states:int -> pid:int -> Model.config -> progress_result
(** Theorem 2 in possibility form, checked exhaustively: builds the full
    reachable state graph and verifies (by backward reachability from the
    process's eating states) that from {e every} reachable state in which
    [pid] is hungry and live, some execution continues to [pid] eating.
    Adversarial crashes of other processes and oracle lies are part of the
    graph; paths that crash [pid] itself do not count as progress. *)

type walk_result = {
  walks_done : int;
  steps_taken : int;   (** transitions executed across all walks *)
  walk_violation : (string * string) option;
}

val random_walk :
  ?walks:int ->
  ?steps:int ->
  ?check:(Model.config -> Model.state -> string option) ->
  seed:int64 ->
  Model.config ->
  walk_result
(** Monte-Carlo exploration for instances too large for exhaustive BFS:
    [walks] (default 64) independent uniformly random paths of up to
    [steps] (default 400) transitions each, checking every visited state
    — including the initial one, which every walk shares. Sound for
    bug-finding (any reported violation is real), not complete. *)
