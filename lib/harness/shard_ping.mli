(** Shard-safe synthetic ping workload.

    Every process periodically pings its whole neighborhood over a
    [shard_safe] {!Net.Network}; receivers fold the traffic into
    per-process checksums. Every handler touches only state owned by its
    event's owner pid, so the workload is legal under shard-{e parallel}
    stepping ({!Sim.Engine.set_sharding} with a domain pool) — unlike
    the full dining worlds, whose monitors and workload share
    cross-process state and therefore run on the engine's sequential
    loop. Tests and the bench use it to check (and time) that parallel
    runs compute exactly the sequential result. *)

type result = {
  events : int;  (** Engine events processed. *)
  sent : int;
  received : int;
  checksum : int;  (** Order-sensitive digest of all deliveries. *)
  worst_watermark : int;  (** Max per-edge in-flight watermark. *)
}

val run :
  ?pool:Exec.Pool.t ->
  ?shards:int ->
  ?period:int ->
  ?seed:int64 ->
  topology:Cgraph.Topology.spec ->
  horizon:Sim.Time.t ->
  unit ->
  result
(** Deterministic in [(topology, horizon, period, seed)]. With [pool]
    the engine fires [shards] shards in parallel on it (one shard, the
    default, runs sequentially); without one, [shards] is ignored and
    the engine runs its sequential loop. [pool] and [shards] never
    change the result: the engine merges staged posts and the network's
    deferred edge updates ({!Sim.Engine.defer}) in canonical rank
    order.
    Default [period = 7]. *)
