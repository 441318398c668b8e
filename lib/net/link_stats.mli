(** Per-channel traffic accounting.

    Counts each message once per cell a query reads. Per directed slot
    (src, dst): cumulative sends, the last send time and the FIFO floor
    (the latest delivery time handed out on it, which {!record_send}
    clamps to). Per undirected edge: one cell packing the messages in
    flight on it (both directions together) under its in-flight
    watermark (the paper bounds it by 4), and the number of messages
    absorbed by a crashed endpoint. Deliveries are derived: sent, minus
    dropped, minus in flight. Everything is stored in one flat array of
    four ints per directed slot, the edge's cells in the fourth int of
    its two slots (in flight at the lower slot, drops at the upper), so
    recording a message touches one or two records and allocates
    nothing, and memory does not grow with run length: nothing is kept
    per message. A windowed count ("sends to [p] in [\[a, b)]") is the
    difference of {!total_sends_to} read once the run has reached
    [b - 1] and [a - 1]. A breakdown by message kind is not kept here:
    {!Kind_watermarks} derives it from the trace stream for the
    experiments that ask.

    The cells are laid out single-writer for sharded stepping
    ({!Sim.Engine.set_sharding}): a slot's send count, stamp and floor
    are written only by the slot's source, at send time, and aggregates
    are derived from them at query time. The edge cells genuinely take
    writes from both endpoints (a send at one, a delivery or drop at
    the other), so while the engine fires shards in parallel their
    updates go through {!Sim.Engine.defer} and apply at the engine's
    merge in canonical rank order — the order the sequential loop
    applies them in place — so every count, the [net.*] counters
    included, is independent of the shard split. *)

type t

val create : engine:Sim.Engine.t -> graph:Cgraph.Graph.t -> ?metrics:Obs.Metrics.t -> unit -> t
(** [engine] is the engine whose events record here; shard it
    ({!Sim.Engine.set_sharding}) before [create], or an update made in
    a parallel step raises [Invalid_argument]. [metrics] — registry to
    register the [net.sent] / [net.delivered] / [net.dropped] counters
    into (default: a private registry). Several overlays sharing one
    registry aggregate into the same counters. *)

(** {2 Recording}

    Each event names the message's channel by its directed slot
    [slot] = (src, dst) in the source's CSR row
    ({!Cgraph.Graph.dir_index}); the network carries that slot from
    send to delivery, so recording never searches the graph. A delivery
    or drop must match an earlier send on the same edge:
    [Invalid_argument] when the edge has nothing in flight. *)

val record_send : t -> slot:int -> at:Sim.Time.t -> deliver_at:Sim.Time.t -> Sim.Time.t
(** A send at time [at] whose delay model asks for delivery at
    [deliver_at]; returns the delivery time the channel grants: the
    later of [deliver_at] and every delivery time granted on [slot]
    before, so a channel never reorders its messages. *)

val record_delivery : t -> slot:int -> unit

val record_drop : t -> slot:int -> unit
(** A message absorbed because its destination crashed: removed from the
    in-flight count without a delivery. *)

val edge_in_flight : t -> int -> int
(** Messages in transit on the undirected edge of a directed slot
    (either of its two slots), both directions together: sends minus
    deliveries and drops, exact. Inside a parallel step an update
    counts from the engine's merge on. *)

val edge_dropped : t -> int -> int
(** Messages sent on the undirected edge of a directed slot (either of
    its two slots), in either direction, that were absorbed by a
    crashed endpoint, exact (from the step merge on, as
    {!edge_in_flight}). *)

val max_edge_watermark : t -> int
(** Maximum over all edges of the edge's in-flight watermark: the most
    messages ever in transit on it at once, both directions together.
    O(slots): derived from the edge cells at query time. *)

val per_edge_watermarks : t -> ((int * int) * int) list
(** Every edge that ever carried traffic with its in-flight watermark,
    sorted by edge key [(min, max)]. *)

val last_send_to : t -> int -> Sim.Time.t option
(** Latest time any message was sent to the given process. *)

val total_sent : t -> int

val total_sends_to : t -> dst:int -> int
(** Messages addressed to [dst] so far, over all its incoming edges. *)

val total_delivered : t -> int
(** [total_sent - total_dropped] minus the messages in flight: exact
    between steps; inside a parallel step it lags the sends whose edge
    updates are still deferred. *)

val total_dropped : t -> int
