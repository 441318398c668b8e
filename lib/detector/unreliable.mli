(** A deliberately broken detector: complete but {e never} accurate.

    Suspects crashed neighbors permanently (local strong completeness,
    50 ticks after the crash), but additionally keeps emitting
    false suspicions of live neighbors forever — every [period] ticks each
    directed pair is wrongly suspected for [duration] ticks (with a
    per-pair phase jitter).

    This violates exactly one half of ◇P₁ — local {e eventual strong
    accuracy} — and is used by the necessity experiment (E9): with it,
    Algorithm 1 stays wait-free but its scheduling mistakes never stop,
    i.e. ◇WX fails. Together with {!Never} (which violates only
    completeness and loses wait-freedom), this shows each property of ◇P₁
    is needed — the empirical face of the weakest-failure-detector result
    the paper cites ([21]). *)

val create :
  Sim.Engine.t ->
  Net.Faults.t ->
  Cgraph.Graph.t ->
  Sim.Rng.t ->
  period:int ->
  duration:int ->
  horizon:Sim.Time.t ->
  unit ->
  Detector.t
(** Needs [0 < duration < period]. False-suspicion events are scheduled
    up front until [horizon]. *)
