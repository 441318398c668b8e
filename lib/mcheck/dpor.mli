(** Depth-first exploration with sleep-set partial-order reduction.

    Equivalent interleavings — schedules that differ only in the order
    of {!Model.independent} adjacent transitions — are explored once:
    after taking sibling [t1], the sibling [t2]'s subtree inherits [t1]
    in its {e sleep set} and never re-executes it first. Sleep sets
    prune redundant transitions, not states: every reachable state is
    still visited and checked, so the verdict (violation / deadlock /
    state count) matches {!Frontier.explore} exactly while the transition
    count shrinks by the number of commuting pairs collapsed. Revisits
    of an interned state re-expand unless a previous expansion used a
    subset sleep set (the sound form of sleep sets + state caching); a
    revisit that would wake nothing does not compute successors.

    [max_depth] bounds the schedule length (the DFS path), not the BFS
    level; a depth-pruned search is reported incomplete. *)

val explore :
  ?max_states:int ->
  ?max_depth:int ->
  ?check:(Model.config -> Model.state -> string option) ->
  Model.config ->
  Explore.result
(** Defaults: [max_states = 200_000], [max_depth = max_int],
    [check = Model.check]. On a violation, [trace]
    carries the offending schedule (the DFS path). *)
