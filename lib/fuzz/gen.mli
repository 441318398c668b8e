(** Seeded generation of whole scenarios.

    One [int64] campaign seed fully determines every case: case [k]
    draws from [Sim.Rng.split_named (create seed) "case-k"], so cases
    are mutually independent streams and a campaign can be fanned out
    across domains (or re-run one case in isolation) without changing a
    single generated scenario. *)

type profile =
  | Sound
      (** Scenarios inside the theorems' hypotheses: Algorithm 1 under an
          eventually perfect detector class. Every applicable oracle is
          expected to pass; a failure is a real finding. *)
  | Hostile
      (** Out-of-hypothesis scenarios too: baseline daemons, the [Never]
          and [Unreliable] detectors. Oracles are checked regardless of
          hypotheses, so violations are expected — this profile exists to
          exercise the shrinking/replay pipeline on real failures. *)

val profile_name : profile -> string

val scenario : profile:profile -> campaign_seed:int64 -> case:int -> Harness.Scenario.t
(** Deterministic in [(profile, campaign_seed, case)]. Generated
    scenarios keep instances small (n <= 12, horizon 8000..16000) so a
    thousand-case campaign stays cheap; crash windows close by half the
    horizon so the eventual properties have room to engage. *)
