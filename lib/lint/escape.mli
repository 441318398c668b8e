(** The domain-escape race detector (rule [domain-escape], typed).

    Finds task bodies reaching [Exec.Pool.run_batch] / [init] /
    [map_array] / [map_list] — directly or through functions that
    forward a parameter into a sink position (a fixpoint over the zone
    call graph) — and flags captured mutable state the body may write.

    Proven safe and not flagged: read-only captures (the submitter
    blocks for the batch; no writer, no race), arrays/bytes accessed
    only at the task's own index parameter (disjoint shards), and
    [Atomic.t]. A captured record is flagged only when the body assigns
    one of its mutable fields.

    Known holes: shared state received as an argument rather than a
    capture, writes through an alias, and mutable state reached through
    a captured closure. *)

val run :
  ?registry:Suppress.t -> Callgraph.t -> Finding.t list
(** Findings sorted by {!Finding.compare}; suppression via
    [[@lint.allow "domain-escape"]] on the closure or its binding. *)
