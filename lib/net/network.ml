type 'msg t = {
  engine : Sim.Engine.t;
  graph : Cgraph.Graph.t;
  delay : Delay.t;
  faults : Faults.t;
  rng : Sim.Rng.t; (* shared stream (legacy mode) *)
  src_rngs : Sim.Rng.t array; (* per-source streams (shard-safe mode) *)
  kind : 'msg -> string;
  kind_index : 'msg -> int;
  on_drop : src:int -> dst:int -> 'msg -> unit;
  handler : dst:int -> src:int -> 'msg -> unit;
  stats : Link_stats.t;
  recorder : Obs.Recorder.t;
  tracing : bool ref; (* the recorder's live full-tracing flag *)
  (* FIFO enforcement: per directed slot, the latest delivery time
     handed out so far; later sends never deliver earlier. The slot
     belongs to the source's CSR row, so the array is single-writer
     under sharded stepping. *)
  last_delivery : Sim.Time.t array;
}

let create ~engine ~graph ~delay ~faults ~rng ?(kind = fun _ -> "msg")
    ?(kind_index = fun _ -> 0) ?(kind_names = [| "msg" |])
    ?(on_drop = fun ~src:_ ~dst:_ _ -> ()) ?metrics ?(shard_safe = false) ~handler () =
  let stats = Link_stats.create ~graph ~kinds:kind_names ?metrics () in
  let src_rngs =
    if not shard_safe then [||]
    else
      (* One delay stream per source: delay draws then depend only on a
         source's own send sequence, never on how sends from different
         shards interleave. *)
      Array.init (Cgraph.Graph.n graph) (fun i ->
          Sim.Rng.split_named rng ("src-" ^ string_of_int i))
  in
  if shard_safe && Sim.Engine.shards engine > 1 then begin
    Link_stats.set_sharding stats ~shards:(Sim.Engine.shards engine)
      ~shard_of:(Sim.Engine.shard_of engine)
      ~fire_rank:(fun () -> Sim.Engine.fire_rank engine)
      ~fire_shard:(fun () -> Sim.Engine.fire_shard engine);
    Sim.Engine.add_step_hook engine (fun () -> Link_stats.flush_staged stats)
  end;
  {
    engine;
    graph;
    delay;
    faults;
    rng;
    src_rngs;
    kind;
    kind_index;
    on_drop;
    handler;
    stats;
    recorder = Sim.Engine.recorder engine;
    tracing = Obs.Recorder.tracing_flag (Sim.Engine.recorder engine);
    last_delivery = Array.make (Cgraph.Graph.dir_count graph) Sim.Time.zero;
  }

(* A delivery fires at its own delivery time, so the engine clock is
   [at], and the kind is recomputed from the message: the closure [send]
   allocates captures only the network, the endpoints and the message. *)
let deliver t ~src ~dst msg =
  let at = Sim.Engine.now t.engine in
  let kind = t.kind_index msg in
  if Faults.is_crashed t.faults dst then begin
    Link_stats.record_drop t.stats ~src ~dst ~kind ~at;
    if !(t.tracing) then Obs.Recorder.drop t.recorder ~time:at ~src ~dst ~tag:(t.kind msg);
    t.on_drop ~src ~dst msg
  end
  else begin
    Link_stats.record_delivery t.stats ~src ~dst ~kind ~at;
    if !(t.tracing) then Obs.Recorder.deliver t.recorder ~time:at ~src ~dst ~tag:(t.kind msg);
    t.handler ~dst ~src msg
  end

let send t ~src ~dst msg =
  let slot = Cgraph.Graph.dir_index_opt t.graph src dst in
  if slot < 0 then
    invalid_arg (Printf.sprintf "Network.send: %d and %d are not neighbors" src dst);
  if not (Faults.is_crashed t.faults src) then begin
    let now = Sim.Engine.now t.engine in
    Link_stats.record_send t.stats ~src ~dst ~kind:(t.kind_index msg) ~at:now;
    let rng = if Array.length t.src_rngs = 0 then t.rng else t.src_rngs.(src) in
    let raw = Sim.Time.add now (Delay.sample t.delay rng ~now) in
    let at = Sim.Time.max raw t.last_delivery.(slot) in
    t.last_delivery.(slot) <- at;
    if !(t.tracing) then
      Obs.Recorder.send t.recorder ~time:now ~src ~dst ~tag:(t.kind msg) ~deliver_at:at;
    ignore (Sim.Engine.schedule_owned t.engine ~owner:dst ~at (fun () -> deliver t ~src ~dst msg))
  end

let stats t = t.stats
let graph t = t.graph
let faults t = t.faults
let engine t = t.engine
