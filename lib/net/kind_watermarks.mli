(** Per-kind channel watermarks, streamed from the trace.

    For each message kind (the trace tag a network gives its messages,
    e.g. ["ping"] or ["fork"]), the most messages of that kind alone
    ever in transit at once on one edge, both directions together.
    {!Link_stats} keeps only the all-kinds watermark; the few readers of
    the per-kind one (experiment E4, the Lemma 2.2 test) attach this
    sink to the world's recorder instead, so untraced runs pay nothing
    for it. It counts every overlay emitting into the recorder, keyed by
    tag. *)

type t

val attach : Obs.Recorder.t -> t
(** A fresh sink subscribed to the recorder (which turns tracing on:
    {!Obs.Recorder.on_record}). Attach before the first send. *)

val max_by_kind : t -> (string * int) list
(** For each kind that ever carried traffic, its maximum per-edge
    in-flight watermark, sorted by kind name. *)
