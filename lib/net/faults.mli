(** Crash-fault injection.

    The paper's fault model is crash-stop: a faulty process ceases
    execution without warning and never recovers. A [Faults.t] holds the
    (virtual-time) crash schedule for a run; the network and every protocol
    layer consult it before executing a step on behalf of a process. *)

type t

val create : Sim.Engine.t -> n:int -> t
(** Fault-free plan for processes [0 .. n-1]. *)

val schedule_crash : t -> pid:int -> at:Sim.Time.t -> unit
(** Arrange for [pid] to crash at time [at] (idempotent; the earliest
    scheduled time wins). Must be called before the engine reaches [at].

    Moving a crash earlier does not withdraw the event queued for the
    later time: that event stays, fires at its tick as a no-op, counts
    in [Sim.Engine.processed] and, until then, in
    [Sim.Engine.pending], and traces as a [fire] record. *)

val is_crashed : t -> int -> bool
(** Whether the process has crashed at the engine's current time. *)

val crash_time : t -> int -> Sim.Time.t
(** Scheduled crash time, or [Time.infinity] for correct processes. *)

val correct : t -> int -> bool
(** Whether the process never crashes in this run (correct in the paper's
    sense), i.e. no crash is scheduled. *)

val crashed_by : t -> Sim.Time.t -> int list
(** Processes whose crash time is [<= t], ascending pid. *)

val n : t -> int

val on_crash : t -> (int -> unit) -> unit
(** Register a callback invoked (in virtual time, at the crash instant)
    whenever a process crashes. Used by oracles and monitors. Callbacks
    fire in registration order, exactly once per crashed pid — even when
    the crash was rescheduled to an earlier time. *)
