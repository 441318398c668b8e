(* Each message is counted once per table that some query reads: its
   directed slot's send count and stamp, and its undirected edge's
   in-flight cell (plus the edge's drop count when it is absorbed). Every
   table is a flat array indexed by the graph's dense directed-slot /
   edge-id indices, so recording touches a few int cells and allocates
   nothing, and nothing is kept per message: windowed questions ("how
   many sends to p in [a, b)?") are answered by sampling total_sends_to
   at the window edges while the run advances. Deliveries are not
   counted at all: total_delivered is what was sent and is neither
   dropped nor in flight.

   The layout is organized for sharded stepping (Sim.Engine): the
   directed-slot arrays are single-writer — d_sent / d_last_send are only
   written by the slot's source, at send time — so shard-parallel firing
   updates them in place. The per-process and global aggregates (total
   sent, per-dst sent, last-send times, worst watermark) are derived from
   the arrays at query time: reads are report-rate, sends are not. The
   per-edge cells genuinely take writes from both endpoints (a send from
   one end, a delivery or drop at the other), in event order; while a
   sharded engine fires in parallel, their updates go through
   [Sim.Engine.defer] and apply at the engine's merge, in the order the
   sequential loop would apply them. *)

(* An edge's cell packs its in-flight count (low bits) under its
   watermark; 2^31 messages in transit on one edge is out of reach. *)
let in_flight_bits = 31
let in_flight_mask = (1 lsl in_flight_bits) - 1

(* Edge update codes: a deferred update's payload is (edge, code). *)
let op_send = 0
let op_deliver = 1
let op_drop = 2

type t = {
  graph : Cgraph.Graph.t;
  off : int array; (* CSR row offsets (graph-owned) *)
  rev : int array; (* directed slot -> reverse slot (graph-owned) *)
  (* Per directed slot, written by the source only. *)
  d_sent : int array;
  d_last_send : Sim.Time.t array; (* -1 = never (times are >= 0) *)
  (* Per undirected edge id: written by both endpoints, deferred inside
     a parallel step. *)
  e_cell : int array; (* watermark lsl in_flight_bits lor in-flight *)
  e_dropped : int array;
  (* Registered in the world's metrics registry (or a private one when
     the caller passes none): a counter bump per send/delivery/drop,
     made where the edge cell moves. *)
  m_sent : Obs.Metrics.counter;
  m_delivered : Obs.Metrics.counter;
  m_dropped : Obs.Metrics.counter;
  engine : Sim.Engine.t;
  in_step : bool ref; (* the engine's live parallel-step flag *)
  mutable edge_kind : int; (* engine kind of deferred edge updates; 0 = none *)
}

(* The one place edge cells and the [net.*] counters move; inside a
   parallel step updates arrive here from the engine's merge, in
   canonical rank order. *)
let[@lint.hot] apply_edge t e code =
  let c = t.e_cell.(e) in
  if code = op_send then begin
    Obs.Metrics.incr t.m_sent;
    let c = c + 1 in
    let f = c land in_flight_mask in
    t.e_cell.(e) <- (if f > c lsr in_flight_bits then (f lsl in_flight_bits) lor f else c)
  end
  else begin
    if c land in_flight_mask = 0 then
      invalid_arg "Link_stats: a delivery or drop on an edge with nothing in flight";
    t.e_cell.(e) <- c - 1;
    if code = op_drop then begin
      Obs.Metrics.incr t.m_dropped;
      t.e_dropped.(e) <- t.e_dropped.(e) + 1
    end
    else Obs.Metrics.incr t.m_delivered
  end

(* The kind is registered only on an engine already sharded: an
   unsharded world's engine never steps in parallel, and carries no
   extra handler. *)
let create ~engine ~graph ?metrics () =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let dirs = Cgraph.Graph.dir_count graph in
  let m = Cgraph.Graph.edge_count graph in
  let t =
    {
      graph;
      off = Cgraph.Graph.csr_offsets graph;
      rev = Cgraph.Graph.rev_slots graph;
      d_sent = Array.make dirs 0;
      d_last_send = Array.make dirs (-1);
      e_cell = Array.make m 0;
      e_dropped = Array.make m 0;
      m_sent = Obs.Metrics.counter metrics "net.sent";
      m_delivered = Obs.Metrics.counter metrics "net.delivered";
      m_dropped = Obs.Metrics.counter metrics "net.dropped";
      engine;
      in_step = Sim.Engine.in_step_flag engine;
      edge_kind = 0;
    }
  in
  if Sim.Engine.shards engine > 1 then
    t.edge_kind <- Sim.Engine.register engine (fun _ e code -> apply_edge t e code);
  t

(* Both endpoints write an edge's cell, so inside a parallel step,
   where they may fire on different domains, the update is deferred to
   the engine's merge; on the sequential loop it already arrives in
   order. *)
let[@lint.hot] edge_update t s code =
  let e = Cgraph.Graph.slot_edge_id t.graph s in
  if !(t.in_step) then Sim.Engine.defer t.engine ~kind:t.edge_kind e code
  else apply_edge t e code

let[@lint.hot] record_send t ~slot:s ~at =
  t.d_sent.(s) <- t.d_sent.(s) + 1;
  t.d_last_send.(s) <- at;
  edge_update t s op_send

let[@lint.hot] record_delivery t ~slot:s = edge_update t s op_deliver
let record_drop t ~slot:s = edge_update t s op_drop

let edge_in_flight t e = t.e_cell.(e) land in_flight_mask
let edge_dropped t e = t.e_dropped.(e)

let max_edge_watermark t =
  Array.fold_left (fun acc c -> max acc (c lsr in_flight_bits)) 0 t.e_cell

let per_edge_watermarks t =
  (* Each edge once, at its upper slot (u, v), u < v: walking the rows
     right to left yields the list sorted by (min, max) endpoint key. *)
  let nbr = Cgraph.Graph.csr_targets t.graph in
  let acc = ref [] in
  for u = Cgraph.Graph.n t.graph - 1 downto 0 do
    for s = t.off.(u + 1) - 1 downto t.off.(u) do
      let v = nbr.(s) in
      if v > u then begin
        let w = t.e_cell.(Cgraph.Graph.slot_edge_id t.graph s) lsr in_flight_bits in
        if w > 0 then acc := ((u, v), w) :: !acc
      end
    done
  done;
  !acc

(* The latest send to a process is the maximum stamp over its incoming
   slots (the reverses of its CSR row): stamps are non-decreasing per
   slot. *)
let last_send_to t pid =
  let best = ref (-1) in
  if pid >= 0 && pid + 1 < Array.length t.off then
    for s = t.off.(pid) to t.off.(pid + 1) - 1 do
      best := max !best t.d_last_send.(t.rev.(s))
    done;
  if !best < 0 then None else Some !best

let total_sent t = Array.fold_left ( + ) 0 t.d_sent

let total_sends_to t ~dst =
  let acc = ref 0 in
  if dst >= 0 && dst + 1 < Array.length t.off then
    for s = t.off.(dst) to t.off.(dst + 1) - 1 do
      acc := !acc + t.d_sent.(t.rev.(s))
    done;
  !acc

let total_dropped t = Array.fold_left ( + ) 0 t.e_dropped

let total_delivered t =
  let in_flight = Array.fold_left (fun acc c -> acc + (c land in_flight_mask)) 0 t.e_cell in
  total_sent t - total_dropped t - in_flight
