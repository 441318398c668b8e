(** The use-site rules: [nondet-iteration], [ambient-effects],
    [io-in-library], [physical-equality], [mutable-global] and
    [exception-swallow], each reported at the offending expression of a
    typed unit.

    Heuristics:
    - {b nondet-iteration} treats a fold that flows into [List.sort]
      (via [|>], [@@] or direct application) as sorted; anything else
      fires and must be sorted, restructured, or annotated.
    - {b physical-equality} skips comparisons where either operand is an
      integer or character literal (the idiomatic immediate-value cases).
    - {b ambient-effects} allows [Random] in [sim/rng.ml], the sanctioned
      wrapper.
    - {b mutable-global} only looks at structure-level bindings and stops
      scanning at function and [lazy] boundaries.
    - {b exception-swallow} fires only on a [try ... with _] handler.

    Site suppression: attach [[@lint.allow "rule-id"]] to the offending
    expression or [[@@lint.allow "rule-id"]] to its binding; several ids
    may be comma-separated, and a bare [[@lint.allow]] allows all rules. *)

val run :
  ?registry:Suppress.t ->
  ?allowlist:Allowlist.t ->
  rules:Rule.id list ->
  Cmt_load.unit_info list ->
  Finding.t list
(** Check the members of [rules] that are site rules over every
    expression of every unit. *)
