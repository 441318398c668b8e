(** Machine-checkable oracles for the paper's guarantees.

    One value per claim: Theorem 1 (◇WX), Theorem 2 (wait-freedom),
    Theorem 3 (eventual (m+1)-bounded waiting), the Section 7 channel
    bound and quiescence, plus the executable-lemma watcher. Each oracle
    separates {e hypotheses} (which scenarios the theorem speaks about,
    [applicable]) from the {e verdict} ([check], which inspects any
    report regardless of hypotheses — that is what lets the negative
    self-tests aim an oracle at a scenario engineered to violate it and
    assert that it fires).

    The same predicates back [dune runtest] (soak matrix) and the fuzzer
    ({!Campaign}, [daemon_sim fuzz]): an oracle that silently always
    passes cannot hide in one copy while another copy stays honest. *)

type t = {
  name : string;  (** Stable id, used by [--property] and reproducers. *)
  claim : string;  (** One-line statement of the guarantee. *)
  applicable : Harness.Scenario.t -> bool;
      (** The theorem's hypotheses: does this scenario's (algo, detector,
          crash plan, ack budget) combination promise the property? *)
  check : Harness.World.report -> string option;
      (** [None] = the property held on this run; [Some msg] = violated,
          with a human-readable account of the evidence. Total on any
          report, including out-of-hypothesis ones. *)
}

val lemmas : t
(** Executable-lemma watcher: [invariant_error = None]. Applicable
    whenever the scenario runs the periodic check ([check_every]). *)

val eventual_weak_exclusion : t
(** Theorem 1: exclusion violations cease once the detector's output is
    settled. Fails on any {!Harness.World.late_violations} (the cut is
    {!Harness.World.settle_cutoff}: the detector's convergence plus a
    [horizon/16] grace window, or the last third of the run when the
    detector never converges — which is how it fires on
    [Unreliable]). *)

val wait_freedom : t
(** Theorem 2: no live process stays hungry forever — here,
    {!Harness.World.starved} is empty (no open hungry session older than
    a quarter of the horizon at the end). *)

val bounded_waiting : t
(** Theorem 3 (generalised by E11): {!Harness.World.late_overtakes} is
    at most {!Harness.World.overtake_bound} ([acks_per_session + 1]). *)

val channel_bound : t
(** Section 7: at most 4 messages in transit per conflict edge
    (dining-layer channels, Algorithm 1 with the paper's ack budget). *)

val channel_bound_with : bound:int -> t
(** {!channel_bound} with an explicit bound — the negative self-test
    tightens the bound to prove the oracle reads real traffic data. *)

val quiescence_grace : Sim.Time.t
(** 5000 ticks: how long after its crash a victim may still be sent to. *)

val quiescence : t
(** Section 7: crashed processes are eventually left alone — no
    dining-layer message is addressed to a victim later than
    {!quiescence_grace} after its crash (read from
    {!Net.Link_stats.last_send_to}). *)

val all : t list
(** Every oracle above, in stable report order. *)

val find : string -> t option
(** Look an oracle up by [name]. *)

val applicable : Harness.Scenario.t -> t list
(** The subset of {!all} whose hypotheses the scenario satisfies. *)

val failures : t list -> Harness.World.report -> (string * string) list
(** [(name, message)] for every given oracle whose [check] fires on the
    report, in the given order. *)
