(* All counters live in flat arrays indexed by the graph's dense
   directed-slot / edge-id / kind indices, so a record_send on the hot
   path touches a handful of int cells and allocates nothing. Nothing
   is kept per message: windowed questions ("how many sends to p in
   [a, b)?") are answered by sampling total_sends_to at the window
   edges while the run advances.

   The layout is organized for sharded stepping (Sim.Engine): every
   directed-slot array is single-writer — d_sent / d_last_send are only
   written by the slot's source (at send time), d_delivered / d_dropped
   only by its destination (at settle time) — so shard-parallel firing
   can update them in place. The per-process and global aggregates that
   used to be running scalars (total sent, per-dst sent, last-send
   times, per-slot in-flight, worst watermark) are instead derived from
   those arrays at query time: reads are report-rate, sends are not.
   Only the undirected-edge in-flight counters and their watermarks
   genuinely need both endpoints to write one cell in event order;
   while a sharded engine fires in parallel, updates to edges that cross
   a shard boundary are buffered per shard and applied at the engine's
   step merge, in the order the sequential loop would apply them. *)

type op = { o_rank : int; o_key : int } (* key = (edge * kc + kind) * 2 + send? *)

type opvec = { mutable oa : op array; mutable on : int }

type t = {
  graph : Cgraph.Graph.t;
  kinds : string array; (* kind names; record_* take indices into this *)
  off : int array; (* CSR row offsets (graph-owned) *)
  rev : int array; (* directed slot -> reverse slot (graph-owned) *)
  (* Per directed slot; see the single-writer note above. *)
  d_sent : int array;
  d_delivered : int array;
  d_dropped : int array;
  d_last_send : Sim.Time.t array; (* -1 = never (times are >= 0) *)
  (* Per undirected edge id (and per (edge, kind): edge * kind_count +
     kind): written by both endpoints, staged when they are on
     different shards. *)
  e_in_flight : int array;
  e_watermark : int array;
  k_in_flight : int array;
  k_watermark : int array;
  (* Registered in the world's metrics registry (or a private one when
     the caller passes none): a counter bump per send/delivery/drop.
     In sharded mode the live bumps are off (worker domains must not
     race on the cells); {!sync_metrics} levels them from the derived
     totals instead. *)
  m_sent : Obs.Metrics.counter;
  m_delivered : Obs.Metrics.counter;
  m_dropped : Obs.Metrics.counter;
  (* Sharded mode (0 = off): probes into the engine's fire context. *)
  mutable shards : int;
  mutable shard_of : int -> int;
  mutable fire_rank : unit -> int;
  mutable fire_shard : unit -> int;
  mutable op_staging : opvec array; (* per shard *)
}

let create ~graph ?(kinds = [| "msg" |]) ?metrics () =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let dirs = Cgraph.Graph.dir_count graph in
  let m = Cgraph.Graph.edge_count graph in
  let kc = Array.length kinds in
  {
    graph;
    kinds;
    off = Cgraph.Graph.csr_offsets graph;
    rev = Cgraph.Graph.rev_slots graph;
    d_sent = Array.make dirs 0;
    d_delivered = Array.make dirs 0;
    d_dropped = Array.make dirs 0;
    d_last_send = Array.make dirs (-1);
    e_in_flight = Array.make m 0;
    e_watermark = Array.make m 0;
    k_in_flight = Array.make (m * kc) 0;
    k_watermark = Array.make (m * kc) 0;
    m_sent = Obs.Metrics.counter metrics "net.sent";
    m_delivered = Obs.Metrics.counter metrics "net.delivered";
    m_dropped = Obs.Metrics.counter metrics "net.dropped";
    shards = 0;
    shard_of = (fun _ -> 0);
    fire_rank = (fun () -> -1);
    fire_shard = (fun () -> -1);
    op_staging = [||];
  }

let kind_count t = Array.length t.kinds

let set_sharding t ~shards ~shard_of ~fire_rank ~fire_shard =
  if shards < 1 then invalid_arg "Link_stats.set_sharding: shards must be >= 1";
  t.shards <- shards;
  t.shard_of <- shard_of;
  t.fire_rank <- fire_rank;
  t.fire_shard <- fire_shard;
  t.op_staging <- Array.init shards (fun _ -> { oa = [||]; on = 0 })

let check_kind t kind =
  if kind < 0 || kind >= kind_count t then
    invalid_arg (Printf.sprintf "Link_stats: bad kind index %d" kind)

(* The one place edge/kind in-flight counters and watermarks move; in a
   parallel step cross-shard ops arrive here via {!flush_staged}, in
   canonical rank order. *)
let[@lint.hot] apply_edge t ~e ~ke ~send =
  if send then begin
    t.e_in_flight.(e) <- t.e_in_flight.(e) + 1;
    if t.e_in_flight.(e) > t.e_watermark.(e) then t.e_watermark.(e) <- t.e_in_flight.(e);
    t.k_in_flight.(ke) <- t.k_in_flight.(ke) + 1;
    if t.k_in_flight.(ke) > t.k_watermark.(ke) then t.k_watermark.(ke) <- t.k_in_flight.(ke)
  end
  else begin
    t.e_in_flight.(e) <- t.e_in_flight.(e) - 1;
    t.k_in_flight.(ke) <- t.k_in_flight.(ke) - 1
  end

let stage_op t ~key =
  let sh = t.fire_shard () in
  let sh = if sh >= 0 then sh else 0 in
  let v = t.op_staging.(sh) in
  let o = { o_rank = t.fire_rank (); o_key = key } in
  if v.on >= Array.length v.oa then begin
    let na = Array.make (max 8 (2 * Array.length v.oa)) o in
    Array.blit v.oa 0 na 0 v.on;
    v.oa <- na
  end;
  v.oa.(v.on) <- o;
  v.on <- v.on + 1

(* Staging is needed only while shards fire in parallel: on the engine's
   sequential loop ([fire_shard] = -1, e.g. a traced run) no step hook
   would ever flush the ops, and updates already arrive in order. The
   slot's endpoints are looked up only then. *)
let[@lint.hot] edge_update t ~s ~kind ~send =
  let e = Cgraph.Graph.slot_edge_id t.graph s in
  let ke = (e * kind_count t) + kind in
  if
    t.shards = 0
    || t.fire_shard () < 0
    || t.shard_of (Cgraph.Graph.slot_src t.graph s) = t.shard_of (Cgraph.Graph.slot_dst t.graph s)
  then apply_edge t ~e ~ke ~send
  else stage_op t ~key:((ke lsl 1) lor if send then 1 else 0)

let flush_staged t =
  if t.shards > 0 then begin
    let total = Array.fold_left (fun acc v -> acc + v.on) 0 t.op_staging in
    if total > 0 then begin
      let bufs =
        Array.map
          (fun v ->
            let a = Array.sub v.oa 0 v.on in
            v.on <- 0;
            a)
          t.op_staging
      in
      let merged = Exec.Pool.merge_by ~rank:(fun o -> o.o_rank) bufs in
      let kc = kind_count t in
      Array.iter
        (fun o ->
          let ke = o.o_key lsr 1 in
          apply_edge t ~e:(ke / kc) ~ke ~send:(o.o_key land 1 = 1))
        merged
    end
  end

let[@lint.hot] record_send t ~slot:s ~kind ~at =
  if t.shards = 0 then Obs.Metrics.incr t.m_sent;
  check_kind t kind;
  t.d_sent.(s) <- t.d_sent.(s) + 1;
  t.d_last_send.(s) <- at;
  edge_update t ~s ~kind ~send:true

let[@lint.hot] record_delivery t ~slot:s ~kind ~at:_ =
  if t.shards = 0 then Obs.Metrics.incr t.m_delivered;
  check_kind t kind;
  t.d_delivered.(s) <- t.d_delivered.(s) + 1;
  edge_update t ~s ~kind ~send:false

let record_drop t ~slot:s ~kind ~at:_ =
  if t.shards = 0 then Obs.Metrics.incr t.m_dropped;
  check_kind t kind;
  t.d_dropped.(s) <- t.d_dropped.(s) + 1;
  edge_update t ~s ~kind ~send:false

let edge_in_flight t e = t.e_in_flight.(e)
let slot_dropped t s = t.d_dropped.(s)

let max_edge_watermark t = Array.fold_left max 0 t.e_watermark

let per_edge_watermarks t =
  (* Edge ids are already in canonical sorted order, so folding right
     to left yields the list sorted by (min, max) endpoint key. *)
  let acc = ref [] in
  for e = Cgraph.Graph.edge_count t.graph - 1 downto 0 do
    if t.e_watermark.(e) > 0 then
      acc := (Cgraph.Graph.edge_endpoints t.graph e, t.e_watermark.(e)) :: !acc
  done;
  !acc

let max_edge_watermark_by_kind t =
  let kc = kind_count t in
  let m = Cgraph.Graph.edge_count t.graph in
  let acc = ref [] in
  for k = 0 to kc - 1 do
    let worst = ref 0 in
    for e = 0 to m - 1 do
      let kw = t.k_watermark.((e * kc) + k) in
      if kw > !worst then worst := kw
    done;
    if !worst > 0 then acc := (t.kinds.(k), !worst) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

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

let total_delivered t = Array.fold_left ( + ) 0 t.d_delivered
let total_dropped t = Array.fold_left ( + ) 0 t.d_dropped

let sync_metrics t =
  let level c v =
    let cur = Obs.Metrics.counter_value c in
    if v > cur then Obs.Metrics.incr ~by:(v - cur) c
  in
  level t.m_sent (total_sent t);
  level t.m_delivered (total_delivered t);
  level t.m_dropped (total_dropped t)
