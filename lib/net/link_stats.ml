(* Each message is counted once per cell that some query reads: its
   directed slot's send count, stamp and FIFO floor, and its undirected
   edge's in-flight cell (plus the edge's drop count when it is
   absorbed). Deliveries are not counted at all: total_delivered is what
   was sent and is neither dropped nor in flight. Nothing is kept per
   message: windowed questions ("how many sends to p in [a, b)?") are
   answered by sampling total_sends_to at the window edges while the
   run advances.

   Every cell lives in one flat int array, [stride] ints per directed
   slot s, at [stride * s]:
     0  sends on s
     1  the last send's time + 1 (0 = never)
     2  the FIFO floor: the latest delivery time handed out on s
     3  the edge word: at the edge's lower slot (s < rev s) its
        in-flight cell, watermark lsl in_flight_bits lor in flight; at
        its upper slot the edge's drop count
   so a send touches its own slot's record and the lower slot's edge
   word, and a delivery the lower slot's edge word: one or two lines
   where separate arrays cost one each. A zero-filled record is a slot
   that never carried a message, so [create] initialises nothing.

   The layout is organized for sharded stepping (Sim.Engine): words 0-2
   are written only by the slot's source, at send time, so
   shard-parallel firing updates them in place. The per-process and
   global aggregates (total sent, per-dst sent, last-send times, worst
   watermark) are derived at query time: reads are report-rate, sends
   are not. The edge words genuinely take writes from both endpoints (a
   send from one end, a delivery or drop at the other), in event order;
   while a sharded engine fires in parallel, their updates go through
   [Sim.Engine.defer] and apply at the engine's merge, in the order the
   sequential loop would apply them. *)

let stride = 4
let sent_at = 0
let last_at = 1
let floor_at = 2
let edge_at = 3

(* 2^31 messages in transit on one edge is out of reach. *)
let in_flight_bits = 31
let in_flight_mask = (1 lsl in_flight_bits) - 1

(* Edge update codes: a deferred update's payload is (lower slot, code). *)
let op_send = 0
let op_deliver = 1
let op_drop = 2

type t = {
  graph : Cgraph.Graph.t;
  off : int array; (* CSR row offsets (graph-owned) *)
  rev : int array; (* directed slot -> reverse slot (graph-owned) *)
  cells : int array; (* [stride] ints per directed slot, see above *)
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

(* [lower], [apply_edge] and [edge_update] are inlined into the
   recording calls: each runs once per message, and as calls of their
   own they cost more than the two integer adds they make. A constant
   [code] then selects its branch of [apply_edge] at compile time. *)
let[@inline][@lint.hot] lower t s =
  let r = t.rev.(s) in
  if s < r then s else r

(* The one place edge words and the [net.*] counters move; inside a
   parallel step updates arrive here from the engine's merge, in
   canonical rank order. [lo] is the edge's lower slot. *)
let[@inline][@lint.hot] apply_edge t lo code =
  let at = (lo * stride) + edge_at in
  let c = t.cells.(at) in
  if code = op_send then begin
    Obs.Metrics.incr t.m_sent;
    let c = c + 1 in
    let f = c land in_flight_mask in
    t.cells.(at) <- (if f > c lsr in_flight_bits then (f lsl in_flight_bits) lor f else c)
  end
  else begin
    if c land in_flight_mask = 0 then
      invalid_arg "Link_stats: a delivery or drop on an edge with nothing in flight";
    t.cells.(at) <- c - 1;
    if code = op_drop then begin
      Obs.Metrics.incr t.m_dropped;
      let up = (t.rev.(lo) * stride) + edge_at in
      t.cells.(up) <- t.cells.(up) + 1
    end
    else Obs.Metrics.incr t.m_delivered
  end

(* The kind is registered only on an engine already sharded: an
   unsharded world's engine never steps in parallel, and carries no
   extra handler. *)
let create ~engine ~graph ?metrics () =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      graph;
      off = Cgraph.Graph.csr_offsets graph;
      rev = Cgraph.Graph.rev_slots graph;
      cells = Array.make (Cgraph.Graph.dir_count graph * stride) 0;
      m_sent = Obs.Metrics.counter metrics "net.sent";
      m_delivered = Obs.Metrics.counter metrics "net.delivered";
      m_dropped = Obs.Metrics.counter metrics "net.dropped";
      engine;
      in_step = Sim.Engine.in_step_flag engine;
      edge_kind = 0;
    }
  in
  if Sim.Engine.shards engine > 1 then
    t.edge_kind <- Sim.Engine.register engine (fun _ lo code -> apply_edge t lo code);
  t

(* Both endpoints write an edge's word, so inside a parallel step,
   where they may fire on different domains, the update is deferred to
   the engine's merge; on the sequential loop it already arrives in
   order. *)
let[@inline][@lint.hot] edge_update t s code =
  let lo = lower t s in
  if !(t.in_step) then Sim.Engine.defer t.engine ~kind:t.edge_kind lo code
  else apply_edge t lo code

let[@lint.hot] record_send t ~slot:s ~at ~deliver_at =
  let base = s * stride in
  let floor = t.cells.(base + floor_at) in
  let deliver_at = if deliver_at < floor then floor else deliver_at in
  t.cells.(base + sent_at) <- t.cells.(base + sent_at) + 1;
  t.cells.(base + last_at) <- at + 1;
  t.cells.(base + floor_at) <- deliver_at;
  edge_update t s op_send;
  deliver_at

let[@lint.hot] record_delivery t ~slot:s = edge_update t s op_deliver
let record_drop t ~slot:s = edge_update t s op_drop

let edge_in_flight t s = t.cells.((lower t s * stride) + edge_at) land in_flight_mask
let edge_dropped t s = t.cells.((Int.max s t.rev.(s) * stride) + edge_at)

(* Folds [f] over the edge word of every lower (or every upper) slot. *)
let fold_edges t ~upper f init =
  let acc = ref init in
  for s = 0 to Array.length t.rev - 1 do
    if (s < t.rev.(s)) <> upper then acc := f !acc t.cells.((s * stride) + edge_at)
  done;
  !acc

let max_edge_watermark t = fold_edges t ~upper:false (fun acc c -> max acc (c lsr in_flight_bits)) 0

let per_edge_watermarks t =
  (* Each edge once, at its lower slot (u, v), u < v: walking the rows
     right to left yields the list sorted by (min, max) endpoint key. *)
  let nbr = Cgraph.Graph.csr_targets t.graph in
  let acc = ref [] in
  for u = Cgraph.Graph.n t.graph - 1 downto 0 do
    for s = t.off.(u + 1) - 1 downto t.off.(u) do
      let v = nbr.(s) in
      if v > u then begin
        let w = t.cells.((s * stride) + edge_at) lsr in_flight_bits in
        if w > 0 then acc := ((u, v), w) :: !acc
      end
    done
  done;
  !acc

(* The latest send to a process is the maximum stamp over its incoming
   slots (the reverses of its CSR row): stamps are non-decreasing per
   slot. *)
let last_send_to t pid =
  let best = ref 0 in
  if pid >= 0 && pid + 1 < Array.length t.off then
    for s = t.off.(pid) to t.off.(pid + 1) - 1 do
      best := max !best t.cells.((t.rev.(s) * stride) + last_at)
    done;
  if !best = 0 then None else Some (!best - 1)

let total_sent t =
  let acc = ref 0 in
  for s = 0 to Array.length t.rev - 1 do
    acc := !acc + t.cells.((s * stride) + sent_at)
  done;
  !acc

let total_sends_to t ~dst =
  let acc = ref 0 in
  if dst >= 0 && dst + 1 < Array.length t.off then
    for s = t.off.(dst) to t.off.(dst + 1) - 1 do
      acc := !acc + t.cells.((t.rev.(s) * stride) + sent_at)
    done;
  !acc

let total_dropped t = fold_edges t ~upper:true ( + ) 0

let total_delivered t =
  let in_flight = fold_edges t ~upper:false (fun acc c -> acc + (c land in_flight_mask)) 0 in
  total_sent t - total_dropped t - in_flight
