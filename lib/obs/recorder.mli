(** Structured, allocation-light event recorder.

    One recorder per simulated world. Components emit typed
    {!Record.t}s; the recorder either drops them (disabled: one load and
    one branch per emission, no allocation), fans them out to sinks, or
    retains them in a growable buffer for JSONL export and diffing.

    The recorder is output-only and has one enablement level: every
    record flows when collection is on or a sink is attached, and none
    flows otherwise. Nothing in the simulation reads it; monitors listen
    to the daemon instead. A sink that wants only the light category
    (phase, suspicion, crash, mark) skips {!Record.structural} kinds.

    Sinks registered with {!on_record} run in subscription order —
    deterministic fan-out order. Registration rebuilds the sink list
    (O(sinks)); emission walks it without allocating. Sequence numbers
    count the records that flowed, so the first record after the first
    sink attaches to a fresh recorder has [seq = 0]. *)

type t

type sink = Record.t -> unit

val create : unit -> t
(** A disabled recorder: every emission is dropped. *)

val collecting : unit -> t
(** A recorder that retains every record in memory (tracing on). *)

val on_record : t -> sink -> unit
(** Attach a sink receiving every record; turns tracing on. *)

val tracing : t -> bool
(** Whether records currently flow. *)

val tracing_flag : t -> bool ref
(** The live cell behind {!tracing}. Hot-path emitters (the engine's
    schedule/fire, the network's send path) hold this cell and guard
    their emission calls with an inline dereference, so a disabled
    recorder costs one load + branch per event — no cross-module call.
    Read-only for callers; the recorder updates it as sinks attach. *)

(** {2 Emission} — each is a no-op at the cost of one branch, with no
    allocation, when tracing is off. *)

val sched : t -> time:int -> id:int -> at:int -> unit
val fire : t -> time:int -> id:int -> unit
val send : t -> time:int -> src:int -> dst:int -> tag:string -> deliver_at:int -> unit
val deliver : t -> time:int -> src:int -> dst:int -> tag:string -> unit
val drop : t -> time:int -> src:int -> dst:int -> tag:string -> unit
val phase : t -> time:int -> pid:int -> phase:string -> unit
val suspect : t -> time:int -> observer:int -> target:int -> on:bool -> unit
val crash : t -> time:int -> pid:int -> unit
val mark : t -> time:int -> subject:int -> tag:string -> string -> unit

(** {2 Collected records} *)

val records : t -> Record.t list
(** Records collected so far, oldest first; empty unless collecting. *)

val iter : t -> (Record.t -> unit) -> unit
val count : t -> int
