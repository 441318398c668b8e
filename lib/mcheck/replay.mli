(** Deterministic replay of counterexample schedules.

    An exploration that finds a violation exports the schedule — the
    list of transition labels from the initial state — via {!to_jsonl};
    {!run} drives the model along it and reports whether the violation
    reappears. {!Model.successors} is pure and labels are unique per
    state, so a replay is deterministic: same config, same schedule,
    same outcome, every time. *)

type outcome =
  | Reproduced of { step : int; message : string; state : string }
      (** The invariant violation reappeared after [step] transitions.
          [step = 0] means the initial state itself violates. A
          {!Model.Model_violation} raised while expanding the state
          after [step] transitions, the last one included, reappears
          with [state] the {!Model.describe} of that state. *)
  | Clean of int
      (** The whole schedule ran (that many steps) without violating —
          the counterexample did {e not} reproduce. *)
  | Stuck of { step : int; label : string; available : string list }
      (** The schedule names a transition that does not exist at the
          state reached after [step] steps — config mismatch or a
          corrupted trace. *)

val run :
  ?check:(Model.config -> Model.state -> string option) ->
  Model.config ->
  string list ->
  outcome
(** Replay the labels in order from {!Model.initial}, checking each
    visited state (including the initial one) with [check] (default
    {!Model.check}). *)

val to_jsonl : ?header:string -> string list -> string
(** Export a schedule as an {!Obs.Jsonl} trace: one [Mark] record per
    step, tag ["mcheck.step"], the label in [detail], the step index as
    seq and time. [?header] prepends a [# ...] comment line. *)

val of_jsonl : string -> string list
(** Parse a {!to_jsonl} export back into a schedule, ignoring header
    lines and any records that are not ["mcheck.step"] marks. *)

val pp_outcome : Format.formatter -> outcome -> unit
