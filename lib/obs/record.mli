(** Typed observability records.

    One constructor per thing the simulator does: engine events being
    scheduled and fired; messages being sent, delivered and
    absorbed; dining-phase transitions; suspicion flips; crashes; and
    free-form marks. Records carry the virtual time at which they were
    emitted plus a per-recorder sequence number, so two runs can be
    compared event-by-event. *)

type kind =
  | Sched of { id : int; at : int }
      (** Engine event [id] scheduled to fire at virtual time [at]. *)
  | Fire of { id : int }  (** Engine event [id] fired. *)
  | Send of { src : int; dst : int; tag : string; deliver_at : int }
      (** Message of kind [tag] sent on channel (src, dst); the FIFO
          delivery time is already decided at send time. *)
  | Deliver of { src : int; dst : int; tag : string }
  | Drop of { src : int; dst : int; tag : string }
      (** Message absorbed because its destination had crashed. *)
  | Phase of { pid : int; phase : string }
      (** Dining-phase transition ("thinking", "hungry", "eating"). *)
  | Suspect of { observer : int; target : int; on : bool }
      (** Failure-detector suspicion flip: [observer] starts ([on]) or
          stops suspecting [target]. *)
  | Crash of { pid : int }  (** Crash-stop fault realised. *)
  | Mark of { subject : int; tag : string; detail : string }
      (** Free-form annotation, e.g. the dining core's
          ["enter_doorway"]. *)

type t = { seq : int; time : int; kind : kind }

val structural : kind -> bool
(** Whether the record belongs to the high-volume structural category
    (engine and network internals) rather than the light category
    (phase, suspicion, crash, mark). Both flow under the recorder's one
    tracing level; the category is only a filter, e.g. for a sink that
    prints the light rows. *)

val label : kind -> string
(** Short machine-readable constructor name, e.g. ["send"]. *)

val subject : kind -> int
(** Process id the record is about, or [-1] for engine-global records. *)

val pp_row : Format.formatter -> t -> unit
(** The one-line human-readable row [\[time\] pN tag detail] printed by
    [daemon_sim run --trace]: phase tags shortened to ["eat"]/["think"],
    suspicion flips as ["suspect"]/["unsuspect"] with detail [pT], marks
    as their own tag and detail, anything else under its {!label}. *)
