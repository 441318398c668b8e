(** Structured, allocation-light event recorder.

    One recorder per simulated world. Components emit typed
    {!Record.t}s; the recorder either drops them (disabled — one mutable
    flag test per emission, no allocation), fans them out to sinks, or
    retains them in a growable buffer for JSONL export and diffing.

    Two enablement levels keep the common case cheap:

    - {e light} records (phase transitions, suspicion flips, crashes,
      marks) flow whenever any sink is attached or collection is on —
      the channel monitors and the CLI [--trace] flag use;
    - {e structural} records (engine schedule/fire/cancel, message
      send/deliver/drop) are high-volume and flow only under {e full}
      tracing: a collecting recorder or an {!on_record} sink.

    Sinks registered with {!on_record}/{!on_light} run in subscription
    order — deterministic fan-out order. Registration rebuilds the sink
    list (O(sinks)); emission walks it without allocating. *)

type t

type sink = Record.t -> unit

val create : unit -> t
(** A disabled recorder: every emission is dropped. *)

val collecting : unit -> t
(** A recorder that retains every record in memory (full tracing). *)

val on_record : t -> sink -> unit
(** Attach a sink receiving {e every} record; enables full tracing. *)

val on_light : t -> sink -> unit
(** Attach a sink receiving only light records; enables light tracing
    without paying for structural records. *)

val enabled : t -> bool
(** Whether light records currently flow. *)

val tracing : t -> bool
(** Whether structural records currently flow (full tracing). *)

val tracing_flag : t -> bool ref
(** The live cell behind {!tracing}. Hot-path emitters (the engine's
    schedule/fire, the network's send path) hold this cell and guard
    their emission calls with an inline dereference, so a disabled
    recorder costs one load + branch per event — no cross-module call.
    Read-only for callers; the recorder updates it as sinks attach. *)

(** {2 Emission} — each is a no-op at the cost of one branch when the
    corresponding level is disabled. *)

val sched : t -> time:int -> id:int -> at:int -> unit
val fire : t -> time:int -> id:int -> unit
val cancel : t -> time:int -> id:int -> unit
val send : t -> time:int -> src:int -> dst:int -> tag:string -> deliver_at:int -> unit
val deliver : t -> time:int -> src:int -> dst:int -> tag:string -> unit
val drop : t -> time:int -> src:int -> dst:int -> tag:string -> unit
val phase : t -> time:int -> pid:int -> phase:string -> unit
val suspect : t -> time:int -> observer:int -> target:int -> on:bool -> unit
val crash : t -> time:int -> pid:int -> unit
val mark : t -> time:int -> subject:int -> tag:string -> string -> unit

val emit_light : t -> time:int -> Record.kind -> unit
val emit_structural : t -> time:int -> Record.kind -> unit

(** {2 Collected records} *)

val records : t -> Record.t list
(** Records collected so far, oldest first; empty unless collecting. *)

val iter : t -> (Record.t -> unit) -> unit
val count : t -> int
