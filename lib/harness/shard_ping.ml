(* A deliberately shard-safe workload: every event handler touches only
   state owned by the event's owner pid — a process's periodic beat
   (owner = the process) reads and writes its own counters and sends on
   its own CSR row; a delivery (owner = the destination, see
   Net.Network) updates the destination's counters. No monitors, no
   tracing, no shared RNG draws after setup. That makes it legal to
   fire its shards in parallel on a domain pool, which the harness's
   full dining worlds are not (their monitors and workload share state
   across processes); the equality tests and the bench lean on this to
   demonstrate that shard-parallel stepping computes the same run as
   the engine's sequential loop. *)

type result = { events : int; sent : int; received : int; checksum : int; worst_watermark : int }

let mix h v =
  (* splitmix64-style finalizer over the int domain; associativity is
     irrelevant because pids are folded in index order at report time. *)
  let h = h lxor (v * 0x9E3779B97F4A7C1) in
  let h = h lxor (h lsr 29) in
  h * 0xBF58476D1CE4E5B

let run ?pool ?(shards = 1) ?(period = 7) ?(seed = 0xACE5L) ~topology ~horizon () =
  let graph = Cgraph.Topology.build topology in
  let n = Cgraph.Graph.n graph in
  let engine = Sim.Engine.create () in
  Option.iter (fun pool -> Sim.Engine.set_sharding engine ~pool ~shards ~n ()) pool;
  let faults = Net.Faults.create engine ~n in
  let rng = Sim.Rng.create seed in
  (* Per-pid owned state; a cell is only ever touched by events owned by
     its pid. *)
  let off = Cgraph.Graph.csr_offsets graph in
  let tgt = Cgraph.Graph.csr_targets graph in
  let rev = Cgraph.Graph.rev_slots graph in
  let sent = Array.make n 0 in
  let received = Array.make n 0 in
  let csum = Array.make n 0 in
  let handler ~dst ~slot () =
    let src = tgt.(rev.(slot)) in
    received.(dst) <- received.(dst) + 1;
    csum.(dst) <- mix csum.(dst) ((src * n) + dst + (Sim.Engine.now engine * 31))
  in
  let network =
    Net.Network.create_slotted ~engine ~graph ~delay:(Net.Delay.Uniform (1, 5)) ~faults ~rng
      ~kind:(fun () -> "ping")
      ~shard_safe:true ~handler ()
  in
  (* Process [i]'s beat, owned by [i]: inside a parallel step its
     re-post is staged as ints. *)
  let beat_kind = ref 0 in
  let beat i delay =
    Sim.Engine.post engine ~kind:!beat_kind ~owner:i ~at:(Sim.Engine.now engine + delay) 0 0
  in
  beat_kind :=
    Sim.Engine.register engine (fun i _ _ ->
        if Sim.Engine.now engine < horizon then begin
          for s = off.(i) to off.(i + 1) - 1 do
            Net.Network.send_slot network ~src:i s ();
            sent.(i) <- sent.(i) + 1
          done;
          beat i period
        end);
  (* Phase jitter drawn at setup time, before any stepping: the shared
     rng is never touched once the engine runs. *)
  for i = 0 to n - 1 do
    beat i (1 + Sim.Rng.int rng period)
  done;
  Sim.Engine.run engine ~until:horizon;
  let stats = Net.Network.stats network in
  Net.Link_stats.sync_metrics stats;
  let checksum = ref 0 in
  for i = 0 to n - 1 do
    checksum := mix !checksum csum.(i)
  done;
  {
    events = Sim.Engine.processed engine;
    sent = Array.fold_left ( + ) 0 sent;
    received = Array.fold_left ( + ) 0 received;
    checksum = !checksum land max_int;
    worst_watermark = Net.Link_stats.max_edge_watermark stats;
  }
