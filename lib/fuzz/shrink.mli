(** Delta-debugging minimization of a failing scenario.

    Greedy descent over a fixed candidate order: each step proposes a
    strictly simpler scenario (fewer processes, fewer crashes, shorter
    horizon, simpler delay model, default-ward parameters), keeps the
    first candidate on which the violated property still fires, and
    repeats until no candidate reproduces. Both the candidate order and
    the accept-first rule are deterministic, so a given (scenario,
    property) always shrinks to the same reproducer. *)

type result = {
  scenario : Harness.Scenario.t;  (** The minimized reproducer. *)
  steps : int;  (** Accepted shrink steps. *)
  attempts : int;  (** Candidate scenarios re-run (accepted + rejected). *)
  actions : string list;  (** Accepted transformations, oldest first. *)
}

val candidates : Harness.Scenario.t -> (string * Harness.Scenario.t) list
(** The labelled one-step simplifications of a scenario, most aggressive
    first. Exposed for tests. *)

val minimize :
  still_failing:(Harness.Scenario.t -> bool) -> Harness.Scenario.t -> result
(** [minimize ~still_failing s] descends from [s] keeping [still_failing]
    true. A candidate that raises [Invalid_argument] (e.g. more crashes
    than its shrunken topology has processes) is rejected like a
    non-reproducing one. At most 300 candidates are evaluated. *)
