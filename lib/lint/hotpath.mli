(** The hot-path allocation guard (rule [hot-path-alloc], typed).

    Flags syntactically evident heap allocations — closures, tuples,
    records, array literals, argument-carrying constructors (including
    list cons), polymorphic variants, lazy thunks, and calls to known
    allocating stdlib functions — inside functions annotated
    [[@lint.hot]]: the per-event paths behind the BENCH_scale.json
    allocation gate. A constructor, tuple or variant whose arguments are
    all constants (a format string literal, [Some 1]) is static data and
    is not flagged.

    Not seen: float boxing, partial-application closures, allocations
    inside callees (annotate the callee too). Justify a deliberate
    allocation in place with [[@lint.allow "hot-path-alloc"]]. *)

val run :
  ?registry:Suppress.t -> ?allowlist:Allowlist.t -> Callgraph.t -> Finding.t list
