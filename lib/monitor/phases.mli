(** Where does a hungry session's waiting time go?

    Algorithm 1 splits a hungry session into phase 1 (outside the doorway,
    collecting acks) and phase 2 (inside, collecting forks). This monitor
    splits every completed session's latency at the doorway-entry event
    (which the algorithm marks on its engine's recorder) into a {e doorway
    wait} and a {e fork wait} — the data behind experiment E12's breakdown
    of what the doorway costs on each topology.

    Only daemons that emit ["enter_doorway"] marks (the Song-Pike core)
    produce samples; on other daemons both sample sets stay empty.

    Samples are kept as exact value -> count multisets, so memory tracks
    the number of distinct waits, not the number of sessions. *)

type t

val attach : ?metrics:Obs.Metrics.t -> n:int -> Sim.Engine.t -> Dining.Instance.t -> t
(** Subscribes to the instance's transitions and to the engine's
    recorder, tracking pids [0, n). Attaching enables the recorder's
    light channel. Every
    completed wait is also observed into the [daemon.doorway_wait] /
    [daemon.fork_wait] histograms of [metrics] (default: a private
    registry). *)

val doorway_waits : t -> int list
(** Hungry -> doorway-entry latencies of completed phases, in ticks,
    ascending. *)

val fork_waits : t -> int list
(** Doorway-entry -> eating latencies, in ticks, ascending. *)

val doorway_summary : t -> Stats.Summary.t
val fork_summary : t -> Stats.Summary.t
