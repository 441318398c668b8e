(** The hot-path guards (rules [hot-path-alloc] and
    [hot-path-optional], typed).

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
    allocation in place with [[@lint.allow "hot-path-alloc"]].

    [hot-path-optional] flags, in the same bodies, every call that
    leaves an optional argument out (defaulted by the type checker, or
    left open by a partial application): each such call runs the
    callee's default-filling wrapper, behind a generic [caml_applyN]
    when the callee's module is compiled [-opaque]. *)

val run :
  ?registry:Suppress.t -> Callgraph.t -> Finding.t list
