(** Multi-seed batches: run the same scenario across independent seeds
    and aggregate — the paper's "for every run" claims are checked over a
    sample of runs rather than one lucky schedule.

    Seeds run as independent {!World}s fanned out over an {!Exec.Pool},
    and every aggregate is folded over the reports in seed order, so the
    result is bit-identical for any [?domains] — parallelism buys wall
    clock only, never a different answer. *)

type aggregate = {
  runs : int;
  total_eats : Stats.Summary.t;          (** distribution over runs *)
  response_mean : Stats.Summary.t;        (** per-run mean response *)
  response_p99 : Stats.Summary.t;         (** per-run p99 response *)
  violations : Stats.Summary.t;           (** per-run violation counts *)
  late_violations_total : int;            (** summed {!World.late_violations}; Theorem 1 says 0 *)
  max_late_overtakes : int;               (** worst {!World.late_overtakes} across runs *)
  overtake_bound : int;                   (** {!World.overtake_bound}; Theorem 3 says max <= it *)
  starved_total : int;                    (** summed {!World.starved}; Theorem 2 says 0 *)
  worst_edge_watermark : int;             (** worst across runs; Section 7 says <= 4 *)
  invariant_errors : string list;         (** should be empty *)
}

val run : ?seeds:int -> ?domains:int -> Scenario.t -> aggregate
(** [run ~seeds ~domains scenario] executes the scenario under seeds
    [1 .. seeds] (default 10), replacing the scenario's own seed, and
    aggregates.

    [domains] caps the parallelism (default
    [Domain.recommended_domain_count ()]; [1] forces the sequential
    fallback). The aggregate does not depend on it. *)

val pp : Format.formatter -> aggregate -> unit
