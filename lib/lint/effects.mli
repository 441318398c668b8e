(** Transitive effect inference (typed; reports under the existing
    [ambient-effects] / [io-in-library] / [mutable-global] ids).

    Computes a per-function effect summary — ambient state
    ([Random.*], [Unix.*], [Sys.time], [exit]), library IO, and
    non-local mutation — and propagates it over the zone call graph to
    a fixpoint, including through higher-order references like
    [List.iter f xs].

    Suppressed sources ([[@lint.allow]] at the site, allowlisted files,
    [sim/rng.ml]) do not seed and therefore do not taint callers. Only
    transitively-acquired effects are reported (at the defining
    binding, naming the callee chain): {!Sites} reports direct
    violations at their site, so nothing is reported twice. *)

val run :
  ?registry:Suppress.t -> ?allowlist:Allowlist.t -> Callgraph.t -> Finding.t list
