(** Per-directed-edge traffic accounting.

    Tracks, for each ordered pair (src, dst) of neighbors: cumulative
    sends, deliveries and drops, the in-flight high-water mark of the
    undirected edge (the paper bounds this by 4), and the last send
    time. Everything is stored in flat arrays indexed by the graph's
    dense directed-slot / edge-id / kind indices, so recording a send is
    allocation-free and memory does not grow with run length: nothing is
    kept per message. A windowed count ("sends to [p] in [\[a, b)]") is
    the difference of {!total_sends_to} read once the run has reached
    [b - 1] and [a - 1]. Message kinds are dense indices into a caller-supplied
    name table so experiments can break traffic down by
    ping/ack/request/fork.

    The arrays are laid out single-writer for sharded stepping
    ({!Sim.Engine.set_sharding}): per-slot counters are written only by
    the slot's source (sends) or destination (deliveries/drops), and
    aggregates that used to be running scalars are derived from them at
    query time. The undirected-edge in-flight counters genuinely take
    writes from both endpoints; after {!set_sharding}, cross-shard
    updates to them made while the engine fires shards in parallel stage
    per shard and apply at the engine's step merge in canonical rank
    order — the order the sequential loop applies them in place — so
    every count is independent of the shard split. *)

type t

val create : graph:Cgraph.Graph.t -> ?kinds:string array -> ?metrics:Obs.Metrics.t -> unit -> t
(** [kinds] — names of the message kinds; [record_send ~kind:k] indexes
    this table (default [[|"msg"|]], a single anonymous kind).
    [metrics] — registry to register the [net.sent] / [net.delivered] /
    [net.dropped] counters into (default: a private registry). Several
    overlays sharing one registry aggregate into the same counters. *)

(** {2 Recording}

    Each event names the message's channel by its directed slot
    [slot] = (src, dst) in the source's CSR row
    ({!Cgraph.Graph.dir_index}); the network carries that slot from
    send to delivery, so recording never searches the graph. *)

val record_send : t -> slot:int -> kind:int -> at:Sim.Time.t -> unit
val record_delivery : t -> slot:int -> kind:int -> at:Sim.Time.t -> unit

val record_drop : t -> slot:int -> kind:int -> at:Sim.Time.t -> unit
(** A message absorbed because its destination crashed: removed from the
    in-flight count without a delivery. *)

val edge_in_flight : t -> int -> int
(** Messages in transit on an undirected edge id
    ({!Cgraph.Graph.slot_edge_id}), both directions together: sends
    minus deliveries and drops, exact. In a sharded parallel step a
    cross-shard update counts from the step merge on. *)

val slot_dropped : t -> int -> int
(** Messages sent on a directed slot that were absorbed by a crashed
    destination, exact. *)

val max_edge_watermark : t -> int
(** Maximum over all edges of the edge's in-flight watermark: the most
    messages ever in transit on it at once, both directions together.
    O(edges): derived from the per-edge table at query time so the send
    path stays single-writer. *)

val per_edge_watermarks : t -> ((int * int) * int) list
(** Every edge that ever carried traffic with its in-flight watermark,
    sorted by edge key [(min, max)]. *)

val max_edge_watermark_by_kind : t -> (string * int) list
(** For each message kind that ever carried traffic, the maximum
    per-edge in-flight watermark of messages of that kind alone, sorted
    by kind name. *)

val last_send_to : t -> int -> Sim.Time.t option
(** Latest time any message was sent to the given process. *)

val total_sent : t -> int

val total_sends_to : t -> dst:int -> int
(** Messages addressed to [dst] so far, over all its incoming edges. *)

val total_delivered : t -> int
val total_dropped : t -> int

(** {2 Sharded mode}

    Wired up by [Net.Network.create ~shard_safe:true]; tests may drive
    it directly. *)

val set_sharding :
  t ->
  shards:int ->
  shard_of:(int -> int) ->
  fire_rank:(unit -> int) ->
  fire_shard:(unit -> int) ->
  unit
(** Switch cross-shard edge-counter updates to per-shard staging
    whenever [fire_shard ()] is non-negative, i.e. while the engine fires
    shards in parallel; on the engine's sequential loop updates still
    apply in place. [shard_of] maps a pid to its shard; [fire_rank] /
    [fire_shard] probe the engine's current fire context (see
    {!Sim.Engine.fire_rank}).
    Live metrics bumps are disabled — call {!sync_metrics} at report
    time. *)

val flush_staged : t -> unit
(** Apply the staged cross-shard edge updates, merged over shards in
    canonical rank order. Register via {!Sim.Engine.add_step_hook}; a
    no-op when nothing is staged or sharding is off. *)

val sync_metrics : t -> unit
(** Level the [net.*] counters up to the derived totals (sharded mode
    skips the per-event bumps because metrics cells are not
    shard-safe). *)
