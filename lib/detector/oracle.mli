(** Scripted ◇P₁: an eventually perfect, locally scope-restricted detector
    with precisely controllable behaviour.

    - {b Local strong completeness}: a crashed process is suspected by each
      correct neighbor from [crash_time + detection_delay] on, permanently.
    - {b Local eventual strong accuracy}: false positives occur exactly in
      the caller-supplied (or randomly generated) windows, each of which
      ends at a finite time; afterwards no correct neighbor is suspected.

    Because the script is known, the run's detector {!convergence_time} is
    known exactly — tests and experiments use it to split a run into the
    "mistakes possible" prefix and the "converged" suffix that the paper's
    eventual properties quantify over. *)

type fp = {
  observer : int;
  target : int;
  from_t : Sim.Time.t;
  till_t : Sim.Time.t;  (** exclusive end of the suspicion window *)
}
(** One scripted false-positive window: [observer] wrongly suspects its
    (live) neighbor [target] during [\[from_t, till_t)]. *)

type t

val create :
  Sim.Engine.t ->
  Net.Faults.t ->
  Cgraph.Graph.t ->
  ?detection_delay:int ->
  ?false_positives:fp list ->
  unit ->
  t * Detector.t
(** [detection_delay] (default 50) is the lag between a crash and its
    permanent suspicion by every correct neighbor. Non-neighbor or
    out-of-range false-positive entries are rejected. Must be created at
    virtual time 0, before any crash fires. *)

val create_random :
  Sim.Engine.t ->
  Net.Faults.t ->
  Cgraph.Graph.t ->
  ?detection_delay:int ->
  Sim.Rng.t ->
  before:Sim.Time.t ->
  per_edge:int ->
  max_len:int ->
  unit ->
  t * Detector.t
(** [create_random engine faults graph rng ~before ~per_edge ~max_len ()]
    is [create engine faults graph ~false_positives ()] with
    [false_positives = random_false_positives rng graph ~before
    ~per_edge ~max_len], event for event and draw for draw, and leaves
    [rng] in the same state; but it builds no script: each window is
    drawn where it is posted, so set-up leaves no per-window garbage. *)

val convergence_time : t -> Sim.Time.t
(** First time from which the detector's output is settled for the
    currently scheduled crash plan: every false-positive window has closed
    and every scheduled crash has been detected. (If crashes are scheduled
    after this call, call again.) The oracle keeps the latest window end,
    not the script, so its memory does not grow with the script. *)

val random_false_positives :
  Sim.Rng.t ->
  Cgraph.Graph.t ->
  before:Sim.Time.t ->
  per_edge:int ->
  max_len:int ->
  fp list
(** Adversarial helper: for each directed neighbor pair, [per_edge]
    windows of length [1 .. max_len] starting uniformly in
    [\[0, before)] and clipped to end by [before]. *)
