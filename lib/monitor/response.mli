(** Hungry-session latency and starvation detection.

    A session runs from a process's Hungry transition to its Eating
    transition. Wait-freedom (Theorem 2) predicts that every correct
    process's session completes; a starved process is one whose session is
    still open "long" after it began ({!open_sessions}; how long is
    [Harness.World.patience]).

    The monitor streams: latencies go to an exact multiset and to
    whatever was registered before the run ({!on_served},
    {!response_series}), so memory does not grow with the number of
    sessions. Only {!completed} is a fixed recent window.

    The monitor also splits each session at doorway entry, the data
    behind experiment E12's breakdown of what the doorway costs:
    Algorithm 1's phase 1 (outside the doorway, collecting acks) gives a
    {e doorway wait} from Hungry to entry, and phase 2 (inside,
    collecting forks) a {e fork wait} from entry to Eating. Entries come
    from the instance's [add_doorway_listener]; daemons without a
    doorway produce no split samples. An entry counts only while the
    pid's latest transition is Hungry, and Thinking drops a pending
    fork split. *)

type session = { pid : Dining.Types.pid; started : Sim.Time.t; served : Sim.Time.t }

type t

val attach : ?metrics:Obs.Metrics.t -> Sim.Engine.t -> Net.Faults.t -> Dining.Instance.t -> t
(** Subscribes to the instance's transitions and doorway entries,
    tracking every pid of [faults]. Every doorway and fork wait is
    observed into the [daemon.doorway_wait] / [daemon.fork_wait]
    histograms of [metrics] (default: a private registry), and
    {!doorway_waits}, {!fork_waits} and their summaries read those
    histograms back, so a registry shared by two monitors shares their
    waits. *)

val on_served : t -> (Dining.Types.pid -> Sim.Time.t -> Sim.Time.t -> unit) -> unit
(** [on_served t f] calls [f pid started served] at every session
    completed from now on, after the monitor's own bookkeeping; callbacks
    run in registration order. Register before the run.
    @raise Invalid_argument if a session has already completed. *)

val recent_size : int
(** How many of the latest sessions {!completed} keeps: 32. *)

val completed : t -> session list
(** The last [recent_size] completed sessions (fewer if the run had
    fewer), oldest first. A window for inspection, not the run's
    history: use {!on_served} to see every session. *)

val durations : t -> int list
(** Every completed session's latency in ticks, ascending. *)

val summary : t -> Stats.Summary.t
(** Exact over every completed session: equal to
    [Stats.Summary.of_ints (durations t)]. *)

val open_sessions : t -> (Dining.Types.pid * Sim.Time.t) list
(** Sessions of live processes still hungry now: (pid, start time). *)

val served_count : t -> int

val response_series : t -> bucket:int -> unit -> (float * float) list
(** For figure F1: mean completed latency per [bucket]-tick window of the
    {e service} time, (window start, mean latency), ascending; empty
    windows are skipped. Register before the run: [response_series t
    ~bucket] starts the series and returns its reader, which gives the
    windows so far whenever it is called.
    @raise Invalid_argument if [bucket <= 0] or a session has already
    completed. *)

val doorway_waits : t -> int list
(** Hungry -> doorway-entry latencies, in ticks, ascending. *)

val fork_waits : t -> int list
(** Doorway-entry -> eating latencies, in ticks, ascending. *)

val doorway_summary : t -> Stats.Summary.t
val fork_summary : t -> Stats.Summary.t
