(* A codec-less network keeps each message in flight in a FIFO per
   directed channel: its deliveries fire in send order (Link_stats
   clamps each delivery time to the channel's FIFO floor), so a
   delivery pops the channel's oldest message.
   The producer (the source's events) writes only [tail] and [first],
   the consumer (the destination's) only [head], so the lists are
   single-writer under sharded stepping. A message sent in one step is
   delivered in a later one, past the step barrier. *)
type 'msg cell = Nil | Cell of { msg : 'msg; mutable next : 'msg cell }

type 'msg t = {
  engine : Sim.Engine.t;
  graph : Cgraph.Graph.t;
  delay : Delay.t;
  faults : Faults.t;
  rng : Sim.Rng.t; (* shared stream (legacy mode) *)
  src_rngs : Sim.Rng.t array; (* per-source streams (shard-safe mode) *)
  kind : 'msg -> string; (* trace tag, computed only while tracing *)
  on_drop : dst:int -> slot:int -> 'msg -> unit;
  handler : dst:int -> slot:int -> 'msg -> unit;
  stats : Link_stats.t;
  recorder : Obs.Recorder.t;
  tracing : bool ref; (* the recorder's live full-tracing flag *)
  encode : 'msg -> int;
  decode : int -> 'msg;
  fifo : bool; (* no codec: messages in flight wait in the per-channel lists *)
  (* Per directed slot when [fifo], [||] otherwise. *)
  first : 'msg cell array; (* the channel's first message ever, until delivered *)
  tail : 'msg cell array; (* newest message sent *)
  head : 'msg cell array; (* last message delivered; its [next] is the oldest in flight *)
  mutable delivery : int; (* the engine kind of this network's deliveries *)
}

let push t slot msg =
  let c = Cell { msg; next = Nil } in
  (match t.tail.(slot) with Nil -> t.first.(slot) <- c | Cell last -> last.next <- c);
  t.tail.(slot) <- c

let pop t slot =
  let c =
    match t.head.(slot) with
    | Cell h ->
        (* Unlink the delivered cell: once promoted, it would otherwise
           keep every later cell alive through a minor collection. *)
        let c = h.next in
        h.next <- Nil;
        c
    | Nil ->
        let c = t.first.(slot) in
        t.first.(slot) <- Nil;
        c
  in
  match c with
  | Cell m ->
      t.head.(slot) <- c;
      m.msg
  | Nil -> invalid_arg "Network: delivery with no message in flight"

(* A delivery fires at its own delivery time, so the engine clock is
   the message's arrival time. The event carries the channel's slot and
   the encoded message; the trace tag is computed from the decoded
   message only while tracing. *)
let[@lint.hot] deliver t ~dst ~slot b =
  let msg = if t.fifo then pop t slot else t.decode b in
  if Faults.is_crashed t.faults dst then begin
    Link_stats.record_drop t.stats ~slot;
    if !(t.tracing) then
      Obs.Recorder.drop t.recorder ~time:(Sim.Engine.now t.engine)
        ~src:(Cgraph.Graph.slot_src t.graph slot) ~dst ~tag:(t.kind msg);
    t.on_drop ~dst ~slot msg
  end
  else begin
    Link_stats.record_delivery t.stats ~slot;
    if !(t.tracing) then
      Obs.Recorder.deliver t.recorder ~time:(Sim.Engine.now t.engine)
        ~src:(Cgraph.Graph.slot_src t.graph slot) ~dst ~tag:(t.kind msg);
    t.handler ~dst ~slot msg
  end

let no_decode _ = invalid_arg "Network: no codec"

let create_slotted ~engine ~graph ~delay ~faults ~rng ?(kind = fun _ -> "msg")
    ?(on_drop = fun ~dst:_ ~slot:_ _ -> ()) ?metrics ?(shard_safe = false) ?codec ~handler () =
  let stats = Link_stats.create ~engine ~graph ?metrics () in
  let src_rngs =
    if not shard_safe then [||]
    else
      (* One delay stream per source: delay draws then depend only on a
         source's own send sequence, never on how sends from different
         shards interleave. *)
      Array.init (Cgraph.Graph.n graph) (fun i ->
          Sim.Rng.split_named rng ("src-" ^ string_of_int i))
  in
  let encode, decode, fifo =
    match codec with
    | Some (encode, decode) -> (encode, decode, false)
    | None -> ((fun _ -> 0), no_decode, true)
  in
  let channels = if fifo then Cgraph.Graph.dir_count graph else 0 in
  let t =
    {
      engine;
      graph;
      delay;
      faults;
      rng;
      src_rngs;
      kind;
      on_drop;
      handler;
      stats;
      recorder = Sim.Engine.recorder engine;
      tracing = Obs.Recorder.tracing_flag (Sim.Engine.recorder engine);
      encode;
      decode;
      fifo;
      first = Array.make channels Nil;
      tail = Array.make channels Nil;
      head = Array.make channels Nil;
      delivery = 0;
    }
  in
  t.delivery <- Sim.Engine.register engine (fun dst slot b -> deliver t ~dst ~slot b);
  t

let create ~engine ~graph ~delay ~faults ~rng ?kind ?on_drop ?metrics ?shard_safe ?codec ~handler () =
  let src slot = Cgraph.Graph.slot_src graph slot in
  let on_drop = Option.map (fun f ~dst ~slot msg -> f ~src:(src slot) ~dst msg) on_drop in
  create_slotted ~engine ~graph ~delay ~faults ~rng ?kind ?on_drop ?metrics ?shard_safe ?codec
    ~handler:(fun ~dst ~slot msg -> handler ~dst ~src:(src slot) msg)
    ()

let[@lint.hot] send_slot t ~src slot msg =
  if not (Faults.is_crashed t.faults src) then begin
    let dst = Cgraph.Graph.slot_dst t.graph slot in
    let now = Sim.Engine.now t.engine in
    let rng = if Array.length t.src_rngs = 0 then t.rng else t.src_rngs.(src) in
    let raw = Sim.Time.add now (Delay.sample t.delay rng ~now) in
    (* FIFO: the channel's floor is the latest delivery time it handed
       out, so a later send never delivers earlier. *)
    let at = Link_stats.record_send t.stats ~slot ~at:now ~deliver_at:raw in
    if !(t.tracing) then
      Obs.Recorder.send t.recorder ~time:now ~src ~dst ~tag:(t.kind msg) ~deliver_at:at;
    (* A message that never arrives is not kept. *)
    if t.fifo && at <> Sim.Time.infinity then push t slot msg;
    Sim.Engine.post t.engine ~kind:t.delivery ~owner:dst ~at slot (t.encode msg)
  end

let send t ~src ~dst msg =
  let slot = Cgraph.Graph.dir_index_opt t.graph src dst in
  if slot < 0 then
    invalid_arg (Printf.sprintf "Network.send: %d and %d are not neighbors" src dst);
  send_slot t ~src slot msg

let stats t = t.stats
