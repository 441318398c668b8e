(** Reliable FIFO message-passing overlay on the simulation engine.

    One ['msg t] carries one protocol's traffic (the dining layer and the
    heartbeat failure detector each create their own overlay, sharing the
    engine, crash plan and optionally the delay model). Guarantees, per the
    paper's channel assumptions:

    - messages between live processes are delivered exactly once, in
      per-channel FIFO order, after a delay drawn from the delay model;
    - messages are never lost, duplicated or corrupted;
    - messages addressed to a crashed process are silently absorbed (the
      channel still exists; there is just no one left to receive);
    - a crashed process sends nothing ([send] from a crashed source is
      ignored — by then the process has ceased executing anyway).

    Delivery of each message invokes the overlay's handler with the
    destination, the channel and the payload.

    A channel is named by its directed slot (src, dst) in the source's
    CSR row ({!Cgraph.Graph.dir_index}). The slot is the currency of
    the per-message path: {!send_slot} takes it, the delivery event
    carries it, {!Link_stats} counts by it (a send writes the source's
    slot record, whose FIFO floor sets the delivery time, and the
    edge's cell, a delivery or drop only the edge's cell) and
    {!create_slotted}'s handler receives it, so no step of a message
    searches the graph.
    The receiver's own end of the edge is its entry in
    {!Cgraph.Graph.rev_slots}. The pid forms {!create} and {!send} are
    wrappers that look the slot up.

    A message in flight is one engine event of the overlay's delivery
    kind (owner = destination, payload = slot and the encoded message;
    see {!Sim.Engine.post}). With a [codec] the message
    itself is that int, and a send allocates nothing. Without one the
    overlay keeps the message in a FIFO per directed channel, one cell
    per message in flight; the FIFO is single-writer per end, so a
    codec-less overlay is shard-safe too. *)

type 'msg t

val create :
  engine:Sim.Engine.t ->
  graph:Cgraph.Graph.t ->
  delay:Delay.t ->
  faults:Faults.t ->
  rng:Sim.Rng.t ->
  ?kind:('msg -> string) ->
  ?on_drop:(src:int -> dst:int -> 'msg -> unit) ->
  ?metrics:Obs.Metrics.t ->
  ?shard_safe:bool ->
  ?codec:('msg -> int) * (int -> 'msg) ->
  handler:(dst:int -> src:int -> 'msg -> unit) ->
  unit ->
  'msg t
(** [kind] labels messages in traces (default: every message ["msg"]);
    it is called only while the engine's recorder traces, and per-kind
    breakdowns ({!Kind_watermarks}) read it from there. The handler runs
    at the message's virtual delivery time. [on_drop] is invoked instead of [handler] when a message
    reaches a crashed destination and is absorbed — protocols that must
    conserve resources carried by messages (forks, tokens) account for the
    loss there. [metrics] is forwarded to the overlay's {!Link_stats} so
    its traffic counters land in the world's registry; overlays sharing a
    registry aggregate into the same [net.*] counters. While the
    engine's recorder traces (see {!Obs.Recorder}), every send, delivery
    and drop is recorded there.

    [shard_safe] (default false) selects per-source delay streams for
    shard-parallel firing under {!Sim.Engine.set_sharding}: delay
    samples draw from a per-source split of [rng], so the draw sequence
    is independent of cross-source interleaving (note this changes
    delivery times relative to the default shared stream). The
    overlay's {!Link_stats} defers its edge-cell updates to the engine's
    merge inside a parallel step whatever [shard_safe] says, provided
    the engine was sharded before [create]. Delivery events are owned by
    their destination either way, so a sharded engine fires them on the
    destination's shard.

    [codec] = [(encode, decode)] turns messages into ints and back;
    [decode (encode m)] must equal [m]. Protocols whose messages carry
    O(log n) bits, as Section 7 bounds the dining layer's, pass one. *)

val create_slotted :
  engine:Sim.Engine.t ->
  graph:Cgraph.Graph.t ->
  delay:Delay.t ->
  faults:Faults.t ->
  rng:Sim.Rng.t ->
  ?kind:('msg -> string) ->
  ?on_drop:(dst:int -> slot:int -> 'msg -> unit) ->
  ?metrics:Obs.Metrics.t ->
  ?shard_safe:bool ->
  ?codec:('msg -> int) * (int -> 'msg) ->
  handler:(dst:int -> slot:int -> 'msg -> unit) ->
  unit ->
  'msg t
(** {!create} with handlers that receive the message's channel slot
    (src, dst) instead of its source. This is the one implementation;
    {!create} wraps its handlers with {!Cgraph.Graph.slot_src}. *)

val send_slot : 'msg t -> src:int -> int -> 'msg -> unit
(** [send_slot t ~src slot msg] sends [msg] on the directed slot [slot],
    which must lie in [src]'s CSR row (a slot of another row sends on
    that row's channel: the caller guarantees the pairing). The one send
    path: a send touches no graph search. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Asynchronously send a message: {!send_slot} on the slot of
    ([src], [dst]). [src] and [dst] must be adjacent in the conflict
    graph (every neighboring pair is connected by a reliable FIFO
    channel; no other channels exist), otherwise [Invalid_argument]. *)

val stats : 'msg t -> Link_stats.t
