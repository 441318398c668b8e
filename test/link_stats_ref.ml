(* Reference channel accounting: the oracle Net.Link_stats is
   differentially tested against. It is the straightforward layout the
   library used to keep — every message counted per directed slot (sent,
   delivered, dropped, last send, FIFO floor), per undirected edge (in
   flight, watermark) and per (edge, kind) (in flight, watermark), each
   table its own array — with every update applied in place, in the
   order it is recorded. An edge's tables are indexed by its
   lower-numbered slot. It has no
   sharded mode: a test feeds it in canonical rank order. Kinds are
   dense indices into [kinds]. *)

type t = {
  graph : Cgraph.Graph.t;
  kinds : string array;
  off : int array;
  rev : int array;
  d_sent : int array;
  d_delivered : int array;
  d_dropped : int array;
  d_last_send : Sim.Time.t array;
  d_floor : Sim.Time.t array; (* latest delivery time granted *)
  e_in_flight : int array;
  e_watermark : int array;
  k_in_flight : int array; (* edge * kind_count + kind *)
  k_watermark : int array;
}

let create ~graph ?(kinds = [| "msg" |]) () =
  let dirs = Cgraph.Graph.dir_count graph in
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
    d_floor = Array.make dirs 0;
    e_in_flight = Array.make dirs 0;
    e_watermark = Array.make dirs 0;
    k_in_flight = Array.make (dirs * kc) 0;
    k_watermark = Array.make (dirs * kc) 0;
  }

let edge t s = min s t.rev.(s)

let edge_update t ~slot ~kind ~send =
  let e = edge t slot in
  let ke = (e * Array.length t.kinds) + kind in
  let d = if send then 1 else -1 in
  t.e_in_flight.(e) <- t.e_in_flight.(e) + d;
  t.e_watermark.(e) <- max t.e_watermark.(e) t.e_in_flight.(e);
  t.k_in_flight.(ke) <- t.k_in_flight.(ke) + d;
  t.k_watermark.(ke) <- max t.k_watermark.(ke) t.k_in_flight.(ke)

let record_send t ~slot ~kind ~at ~deliver_at =
  t.d_sent.(slot) <- t.d_sent.(slot) + 1;
  t.d_last_send.(slot) <- at;
  t.d_floor.(slot) <- max t.d_floor.(slot) deliver_at;
  edge_update t ~slot ~kind ~send:true;
  t.d_floor.(slot)

let record_delivery t ~slot ~kind =
  t.d_delivered.(slot) <- t.d_delivered.(slot) + 1;
  edge_update t ~slot ~kind ~send:false

let record_drop t ~slot ~kind =
  t.d_dropped.(slot) <- t.d_dropped.(slot) + 1;
  edge_update t ~slot ~kind ~send:false

let edge_in_flight t s = t.e_in_flight.(edge t s)
let edge_dropped t s = t.d_dropped.(s) + t.d_dropped.(t.rev.(s))
let max_edge_watermark t = Array.fold_left max 0 t.e_watermark

let per_edge_watermarks t =
  List.filter_map
    (fun s ->
      let u = Cgraph.Graph.slot_src t.graph s and v = Cgraph.Graph.slot_dst t.graph s in
      if u < v && t.e_watermark.(s) > 0 then Some ((u, v), t.e_watermark.(s)) else None)
    (List.init (Cgraph.Graph.dir_count t.graph) Fun.id)

let max_edge_watermark_by_kind t =
  let kc = Array.length t.kinds in
  List.init kc (fun k ->
      let worst = ref 0 in
      for e = 0 to Cgraph.Graph.dir_count t.graph - 1 do
        worst := max !worst t.k_watermark.((e * kc) + k)
      done;
      (t.kinds.(k), !worst))
  |> List.filter (fun (_, w) -> w > 0)
  |> List.sort compare

(* The incoming slots of [pid] are the reverses of its CSR row. *)
let incoming t pid =
  if pid < 0 || pid + 1 >= Array.length t.off then []
  else List.init (t.off.(pid + 1) - t.off.(pid)) (fun i -> t.rev.(t.off.(pid) + i))

let last_send_to t pid =
  match List.fold_left (fun acc s -> max acc t.d_last_send.(s)) (-1) (incoming t pid) with
  | -1 -> None
  | at -> Some at

let total_sent t = Array.fold_left ( + ) 0 t.d_sent
let total_sends_to t ~dst = List.fold_left (fun acc s -> acc + t.d_sent.(s)) 0 (incoming t dst)
let total_delivered t = Array.fold_left ( + ) 0 t.d_delivered
let total_dropped t = Array.fold_left ( + ) 0 t.d_dropped
