(** Discrete-event simulation engine.

    The engine owns a virtual clock and a deterministic event queue.
    Events are data: a kind, an owner and two int payload words,
    scheduled at absolute virtual times; events with equal times fire
    in scheduling order. A kind is a handler registered once with
    {!register}, and {!post} queues an event of that kind without
    allocating. {!schedule} is the closure form, one built-in kind, for
    tests, examples and benchmarks on unsharded engines. Handlers run
    instantaneously in virtual time and may post further events.

    An event is never withdrawn: once queued, it fires. A caller that
    may stop wanting an event checks, in the handler, that it still
    applies, and returns at once when not (as [Net.Faults] does for a
    crash moved earlier, and heartbeat timeouts for a beat that came in
    time).

    {2 Sequential and parallel stepping}

    {!run} has one sequential loop: pop the next event, fire it, repeat.
    Every run, traced or not, sharded or not, goes through it unless
    {!set_sharding} attached a pool, [shards > 1] and tracing is
    off. Then each step drains every event of the frontier tick into a
    batch, fires each shard's slice of the batch on its own domain of
    the pool, and merges the events scheduled during the firing back
    into the queue in a canonical order — sorted by the pop rank of the
    scheduling event, program order within a rank. That is the order
    the sequential loop schedules in, so a parallel run is bit-identical
    to the sequential one for any [shards]. Attaching the pool is the
    caller's assertion that every handler touches state of its own
    shard exclusively (cross-shard effects must go through [post] or
    a staged component such as [Net.Link_stats]). A closure never
    fires on a worker domain: a sharded engine refuses {!schedule}. *)

type t

val create : ?recorder:Obs.Recorder.t -> unit -> t
(** [create ~recorder ()] wires the engine's structural observability
    hooks — a record per event scheduled or fired — into the
    given recorder (see {!Obs.Recorder}; defaults to a disabled one, in
    which case each hook costs a single branch). The event queue is the
    hierarchical timing wheel {!Wheel}, over the event pool's slot
    indices. *)

val now : t -> Time.t
(** Current virtual time. *)

val recorder : t -> Obs.Recorder.t
(** The recorder this engine (and every component built on it) emits
    into — one per simulated world. *)

val register : t -> (int -> int -> int -> unit) -> int
(** [register t h] adds an event kind and returns its index. [post]ing
    an event of that kind later runs [h owner a b] at the event's time.
    Register before running; raises [Invalid_argument] inside a
    parallel step. *)

val post : t -> kind:int -> owner:int -> at:Time.t -> int -> int -> unit
(** [post t ~kind ~owner ~at a b] queues an event of a registered
    [kind] with payload [a], [b]. [owner] is the process the event
    belongs to ([-1] = ownerless); parallel stepping partitions the
    batch on it. Owners outside the 21-bit field are treated as
    ownerless. Allocates nothing, at any delay, once the run has
    reached its high-water marks: the event pool's, and with it the
    timing wheel's, whose lists are threaded through per-slot links
    (grown a chunk at a time with the pool), and whose upper levels
    are allocated the first time a delay reaches them. Posting at
    [Time.infinity] is a no-op.
    Raises [Invalid_argument] for an unregistered kind or a time in the
    past. Inside a parallel step the event is staged and gets its pool
    slot at the step's merge. *)

val schedule : t -> ?owner:int -> at:Time.t -> (unit -> unit) -> unit
(** [schedule t ~owner ~at f] runs [f] when the clock reaches [at]. [at]
    must not be in the past. Scheduling at [Time.infinity] is a no-op.
    [owner] is as for {!post} (default: ownerless). [f] waits in a side
    table, which costs the closure and a table cell, so library callers
    {!post} instead. Raises [Invalid_argument] if [shards t > 1]. *)

val schedule_after : t -> ?owner:int -> delay:Time.t -> (unit -> unit) -> unit
(** [schedule_after t ~delay f] = [schedule t ~at:(now t + delay) f]. *)

val run : t -> until:Time.t -> unit
(** Process events in time order until the queue is empty or the next
    event is strictly later than [until]. The clock is left at the time of
    the last processed event (or unchanged if none fired). On exit the
    event pool gives back trailing chunks a burst left empty, and the
    wheel the link chunks of those slots. *)

val run_all : t -> unit
(** Process events until the queue is empty. Only safe for event graphs
    that quiesce. *)

val pending : t -> int
(** Number of events still queued, exactly: every one of them will
    fire. *)

val processed : t -> int
(** Total number of events fired so far. *)

val set_sharding : t -> pool:Exec.Pool.t -> shards:int -> n:int -> unit -> unit
(** [set_sharding t ~pool ~shards ~n ()] partitions owner pids [0, n)
    into [shards] contiguous shards (clamped to [n]) and attaches [pool]:
    from then on every step with tracing off fires its shards in
    parallel on the pool when [shards > 1]; a traced run, or
    [shards = 1], stays on the sequential loop. The caller thereby
    asserts every handler is shard-safe. Call before running; raises
    [Invalid_argument] mid-step, if [n] exceeds the owner field, or if
    it would set [shards > 1] while a {!schedule}d closure is pending. *)

val shards : t -> int
(** Number of shards set by {!set_sharding}; 0 when it was never
    called. *)

val shard_of : t -> int -> int
(** [shard_of t owner] is the shard owning that pid under the current
    partition: 0 for ownerless events (owner [-1]) and on an unsharded
    engine; owners at or beyond [n] fall into the last shard. *)

val fire_rank : t -> int
(** Pop rank of the event currently firing on this domain in a parallel
    step, -1 elsewhere (including the whole sequential loop). The
    canonical-merge key for staged per-shard effects. *)

val fire_shard : t -> int
(** Shard of the event currently firing on this domain in a parallel
    step, -1 elsewhere (including the whole sequential loop). *)

val add_step_hook : t -> (unit -> unit) -> unit
(** Register a hook run (on the submitting domain) after every
    sub-round merge of a parallel step — where components with their own
    per-shard staging (e.g. [Net.Link_stats]) apply buffered cross-shard
    effects in canonical order. Never called by the sequential loop. *)
