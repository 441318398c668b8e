(** The model checker's breadth-first search: level-synchronous, with
    successor generation spread over an {!Exec.Pool}.

    Each level is expanded in slices of 256 states per domain: the
    slice is split into contiguous chunks whose successors are
    generated in parallel, then merged back into the visited set
    sequentially and in chunk order, which is exactly the order a
    sequential expansion of the level produces. A slice is merged
    before the next is expanded, so its successor lists die young.

    The merge interns, records parents and runs [check] on each newly
    interned state: every state is checked once, on the submitting
    domain, and [check] is not called again after it first returns a
    violation. The merge finishes the current level after a violation,
    so the counters include that whole level.

    Every field of the result — states, transitions, depth, deadlocks,
    verdict, counterexample schedule — is therefore bit-identical for
    any [domains]. *)

val explore :
  ?max_states:int ->
  ?max_depth:int ->
  ?domains:int ->
  ?check:(Model.config -> Model.state -> string option) ->
  Model.config ->
  Explore.result
(** Defaults: [max_states = 200_000], [max_depth = max_int],
    [domains = 1] (sequential, no domains spawned),
    [check = Model.check]. At most [max_states] states are interned and
    checked. A state at the depth cap only marks the search incomplete
    when it actually has unvisited successors, so a model whose
    diameter equals [max_depth] is still reported complete. A
    {!Model.Model_violation} (a delivery handler's lemma check, or a
    transition that does not lower {!Model.rank}) is reported with the
    {!Model.describe} of the state whose expansion raised it, and its
    trace leads to that state. *)

type reach_result =
  | Found of int  (** a state satisfying the predicate exists at this depth *)
  | Unreachable
      (** the {e fully explored} reachable space contains no such state —
          trustworthy, the search was not cut short *)
  | Truncated
      (** the search hit [max_states]/[max_depth] first; absence of the
          target is unknown. A capped search never reports
          [Unreachable]. *)

val reach :
  ?max_states:int ->
  ?max_depth:int ->
  pred:(Model.state -> bool) ->
  Model.config ->
  reach_result
(** {!explore} with [pred] as the invariant, on one domain: the depth of
    the first state in BFS order that satisfies [pred]. [max_states]
    bounds the states examined, so a target first met beyond the cap is
    [Truncated], not [Found].
    @raise Model.Model_violation if expanding a state raises it (see
    {!explore}) before any target is found. *)
