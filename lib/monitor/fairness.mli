(** Runtime measurement of k-bounded waiting (overtaking).

    An {e overtake} happens when process [j] starts eating while its
    neighbor [i] has been continuously hungry; the count is consecutive
    within one hungry session of the victim [i] and resets when [i] eats.
    Theorem 3 predicts that every run has a suffix in which no one
    overtakes a continuously hungry live neighbour more than twice
    ({!max_consecutive_after}, read at the settle cut by
    [Harness.World.late_overtakes]); doorway-less priority schemes have
    unbounded counts.

    The monitor streams: it keeps exact aggregates, not one record per
    overtake, so its memory does not grow with the run's length. Every
    query below is exact over the whole run except {!overtakes}, which
    keeps a fixed recent window. *)

type overtake = {
  time : Sim.Time.t;
  overtaker : Dining.Types.pid;
  victim : Dining.Types.pid;
  session_start : Sim.Time.t;  (** start of the victim's hungry session *)
  count : int;  (** consecutive overtakes of this pair within the session, after this one *)
}

type t

val attach : Sim.Engine.t -> Cgraph.Graph.t -> Net.Faults.t -> Dining.Instance.t -> t

val recent_size : int
(** How many of the latest overtakes {!overtakes} keeps: 32. *)

val overtakes : t -> overtake list
(** The last [recent_size] overtakes (fewer if the run had fewer),
    oldest first. A window for inspection, not the run's history: the
    whole-run aggregates are the queries below. *)

val max_consecutive : t -> int
(** Highest consecutive count observed anywhere in the run. *)

val max_consecutive_after : t -> Sim.Time.t -> int
(** Highest number of consecutive overtakes of one victim by one
    overtaker {e occurring} at or after the given time, within one
    hungry session of the victim. Sessions that started before the
    cutoff count too: a starved victim's only session spans the whole
    run. The suffix form of Theorem 3's bound. *)

val windowed_max : t -> window:int -> horizon:Sim.Time.t -> unit -> (float * float) list
(** For figure F3: per time window \[w*window, (w+1)*window) up to the
    one holding [horizon], the maximum consecutive count of overtakes
    occurring in that window (0 when none). Register before the run:
    [windowed_max t ~window ~horizon] starts the series and returns its
    reader, which gives the windows so far whenever it is called.
    @raise Invalid_argument if [window <= 0] or an overtake has already
    been recorded. *)
