(** The sequential breadth-first search [Mcheck.Frontier.explore] is
    checked against: a FIFO queue, parent pointers in a hash table, and
    the invariant checked on every state as it is first interned. It
    stops at the first violation, mid-level, so on a violating run it
    agrees with the frontier on the verdict and a replayable schedule,
    not on the counters. *)

val bfs :
  ?max_states:int ->
  ?max_depth:int ->
  ?check:(Mcheck.Model.config -> Mcheck.Model.state -> string option) ->
  Mcheck.Model.config ->
  Mcheck.Explore.result
(** Defaults: [max_states = 200_000], [max_depth = max_int],
    [check = Mcheck.Model.check]. A state popped at the depth cap marks
    the search incomplete only when it has an unvisited successor. *)
