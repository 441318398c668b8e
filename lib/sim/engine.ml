(* [state] packs the event id, the owning process and the lifecycle
   flags so the record stays at two fields — bit 0 = cancelled, bit 1 =
   fired, bits 2..22 = owner + 1 (0 = ownerless), bits 23.. = id.
   Keeping the per-event allocation small matters: the engine allocates
   one of these per scheduled event on the hot path. The owner is what
   parallel stepping partitions on; owners above {!owner_limit} are
   silently treated as ownerless (set_sharding rejects such process
   counts, so only unsharded runs — where the owner is unused — ever get
   there). [action] is mutable so cancel/fire can drop the closure: a
   cancelled husk may sit in the queue until its tick is reached, and it
   must not retain the closure's environment for all that time. *)
type event = { mutable state : int; mutable action : unit -> unit }

let cancelled_bit = 1
let fired_bit = 2
let owner_bits = 21
let owner_mask = (1 lsl owner_bits) - 1
let owner_limit = owner_mask - 1
let id_shift = 2 + owner_bits
let id_of_state st = st lsr id_shift
let owner_of_state st = ((st lsr 2) land owner_mask) - 1
let pack_owner owner = (owner + 1) lsl 2
let noop () = ()

(* An id is the event itself: no box per [schedule]. *)
type event_id = event

(* Fill value for the queue's vacated cells and the reused step
   buffers: a slot that is not in use must hold this, never a real
   event, or it pins that event after it has left. Its state is
   cancelled and fired, so it is also the id of an event scheduled at
   [Time.infinity]: [cancel] on it is a no-op, and nothing writes it. *)
let dummy_ev = { state = cancelled_bit lor fired_bit; action = noop }

(* An effect buffered during a parallel step: an event scheduled while
   the step's batch was firing, remembered with the pop rank of the
   event that scheduled it. The rank is what makes the end-of-step merge
   canonical: (rank, per-shard program order) is the order [fire_loop]
   would have scheduled in, whatever the shard count. *)
type staged = { s_at : Time.t; s_rank : int; s_ev : event }

type svec = { mutable sa : staged array; mutable sn : int }

(* Per-domain fire context: which shard is firing and the rank of the
   event being fired. Domain-local so the parallel fire phase can route
   nested [schedule]/[cancel] calls without touching shared state. *)
type fire_ctx = { mutable rank : int; mutable shard : int }

type t = {
  mutable clock : Time.t;
  queue : event Wheel.t;
  mutable processed : int;
  mutable next_id : int;
  recorder : Obs.Recorder.t;
  tracing : bool ref; (* the recorder's live full-tracing flag *)
  (* Parallel stepping (shards = 0: never configured). *)
  mutable shards : int;
  mutable shard_n : int; (* process count the partition covers *)
  mutable pool : Exec.Pool.t option;
  mutable staging : svec array; (* per shard, reused across steps *)
  mutable deferred_dead : int array; (* per shard: husk notes owed to the queue *)
  mutable in_step : bool; (* a parallel step is running *)
  mutable base_rank : int; (* rank of the current sub-round's first event *)
  mutable batch_ev : event array; (* the tick's events in pop order *)
  mutable batch_len : int;
  mutable pb_ev : event array; (* parallel scatter: batch grouped by shard *)
  mutable pb_rank : int array;
  mutable pb_off : int array; (* shard s owns pb indices [off.(s), off.(s+1)) *)
  mutable pb_cur : int array;
  mutable shard_fired : int array;
  mutable step_hooks : (unit -> unit) list; (* run after each sub-round merge *)
  ctx_key : fire_ctx Domain.DLS.key;
}

let create ?recorder () =
  let recorder = match recorder with Some r -> r | None -> Obs.Recorder.create () in
  {
    clock = Time.zero;
    queue = Wheel.create ~dead:(fun ev -> ev.state land cancelled_bit <> 0) ~dummy:dummy_ev ();
    processed = 0;
    next_id = 0;
    recorder;
    tracing = Obs.Recorder.tracing_flag recorder;
    shards = 0;
    shard_n = 0;
    pool = None;
    staging = [||];
    deferred_dead = [||];
    in_step = false;
    base_rank = 0;
    batch_ev = [||];
    batch_len = 0;
    pb_ev = [||];
    pb_rank = [||];
    pb_off = [||];
    pb_cur = [||];
    shard_fired = [||];
    step_hooks = [];
    ctx_key = Domain.DLS.new_key (fun () -> { rank = -1; shard = -1 });
  }

let now t = t.clock
let recorder t = t.recorder

let set_sharding t ~pool ~shards ~n () =
  if t.in_step then invalid_arg "Engine.set_sharding: cannot reconfigure inside a step";
  if n <= 0 then invalid_arg "Engine.set_sharding: n must be positive";
  if n > owner_limit then
    invalid_arg
      (Printf.sprintf "Engine.set_sharding: n=%d exceeds the %d-bit owner field" n owner_bits);
  if shards < 1 then invalid_arg "Engine.set_sharding: shards must be >= 1";
  let shards = min shards n in
  t.shards <- shards;
  t.shard_n <- n;
  t.pool <- Some pool;
  t.staging <- Array.init shards (fun _ -> { sa = [||]; sn = 0 });
  t.deferred_dead <- Array.make shards 0;
  t.pb_off <- Array.make (shards + 1) 0;
  t.pb_cur <- Array.make shards 0;
  t.shard_fired <- Array.make shards 0

let shards t = t.shards

(* Contiguous partition of [0, shard_n) into [shards] ranges. Ownerless
   events (owner -1) fall into shard 0; owners at or beyond [shard_n]
   are clamped to the last pid, hence the last shard. *)
let shard_of t owner =
  if t.shards <= 1 || owner <= 0 then 0
  else
    let o = if owner >= t.shard_n then t.shard_n - 1 else owner in
    o * t.shards / t.shard_n

let fire_rank t = (Domain.DLS.get t.ctx_key).rank
let fire_shard t = (Domain.DLS.get t.ctx_key).shard
let add_step_hook t f = t.step_hooks <- t.step_hooks @ [ f ]

let dummy_staged = { s_at = 0; s_rank = 0; s_ev = dummy_ev }

let stage_push t shard stg =
  let v = t.staging.(shard) in
  if v.sn >= Array.length v.sa then begin
    let na = Array.make (max 8 (2 * Array.length v.sa)) dummy_staged in
    Array.blit v.sa 0 na 0 v.sn;
    v.sa <- na
  end;
  v.sa.(v.sn) <- stg;
  v.sn <- v.sn + 1

let schedule_owned t ~owner ~at f =
  let owner = if owner < -1 || owner > owner_limit then -1 else owner in
  if at = Time.infinity then dummy_ev
  else begin
    if at < t.clock then
      invalid_arg
        (Printf.sprintf "Engine.schedule: at=%d is in the past (now=%d)" at t.clock);
    if t.in_step then begin
      (* Parallel step: the new event goes into the firing shard's
         staging buffer and reaches the queue at the sub-round's merge
         point, in canonical (rank, program-order) order. Its id is
         assigned at the merge too — [next_id] must not be touched from
         worker domains — which lands on the values [fire_loop] would
         have handed out, in the same order. No sched record: tracing is
         off in a parallel step. *)
      let ctx = Domain.DLS.get t.ctx_key in
      let ev = { state = pack_owner owner; action = f } in
      stage_push t (if ctx.shard >= 0 then ctx.shard else 0) { s_at = at; s_rank = ctx.rank; s_ev = ev };
      ev
    end
    else begin
      let ev = { state = (t.next_id lsl id_shift) lor pack_owner owner; action = f } in
      t.next_id <- t.next_id + 1;
      Wheel.add t.queue ~prio:at ev;
      (* Call-site guard: the emission call is skipped entirely when full
         tracing is off, keeping the hot path at one load + branch. *)
      if !(t.tracing) then
        Obs.Recorder.sched t.recorder ~time:t.clock ~id:(id_of_state ev.state) ~at;
      ev
    end
  end

let schedule t ?(owner = -1) ~at f = schedule_owned t ~owner ~at f
let schedule_after t ?owner ~delay f = schedule t ?owner ~at:(Time.add t.clock delay) f

let cancel t ev =
  (* Count each still-queued event as dead at most once; cancelling a
     fired event must not skew the queue's husk accounting. *)
  if ev.state land (cancelled_bit lor fired_bit) = 0 then begin
    ev.state <- ev.state lor cancelled_bit;
    (* The husk stays queued until popped or compacted away; drop the
       closure now so it doesn't pin its environment until then. *)
    ev.action <- noop;
    if t.in_step then begin
      (* Deferred husk note: mid-step the event may live in a staging
         buffer or the current batch rather than the queue, and the
         queue must not be touched from worker domains. Settled at
         the sub-round merge. *)
      let ctx = Domain.DLS.get t.ctx_key in
      let sh = if ctx.shard >= 0 then ctx.shard else 0 in
      t.deferred_dead.(sh) <- t.deferred_dead.(sh) + 1
    end
    else Wheel.note_dead t.queue;
    if !(t.tracing) then
      Obs.Recorder.cancel t.recorder ~time:t.clock ~id:(id_of_state ev.state)
  end

(* The fire loop is a toplevel tail recursion rather than a [ref]-driven
   while: it runs once per event over the whole simulation, and keeping
   it allocation-free means the only heap traffic per fired event is
   whatever the action itself does. [Wheel.next_tick] is [Time.infinity]
   (max_int) on an empty queue, a tick no event is ever queued at. *)
let[@lint.hot] rec fire_loop t ~until =
  let at = Wheel.next_tick t.queue in
  if at <> Time.infinity && at <= until then begin
    let ev = Wheel.pop t.queue in
    let st = ev.state in
    ev.state <- st lor fired_bit;
    if st land cancelled_bit = 0 then begin
      t.clock <- at;
      t.processed <- t.processed + 1;
      if !(t.tracing) then Obs.Recorder.fire t.recorder ~time:at ~id:(id_of_state st);
      let action = ev.action in
      (* Release the closure before running it: the caller may hold the
         event_id long after the event fires. *)
      ev.action <- noop;
      action ()
    end;
    fire_loop t ~until
  end

(* ---- Parallel stepping ----------------------------------------------- *)

let batch_push t ev =
  if t.batch_len >= Array.length t.batch_ev then begin
    let na = Array.make (max 16 (2 * Array.length t.batch_ev)) dummy_ev in
    Array.blit t.batch_ev 0 na 0 t.batch_len;
    t.batch_ev <- na
  end;
  t.batch_ev.(t.batch_len) <- ev;
  t.batch_len <- t.batch_len + 1

(* Fire one batch: group it by shard (preserving pop order within each
   shard) and fire the shards on the pool. Worker domains never touch
   the queue, the recorder, or [next_id] — their only shared-state
   writes go through the per-shard staging buffers. *)
let fire_batch t tick pool =
  let s = t.shards in
  let off = t.pb_off and cur = t.pb_cur in
  Array.fill off 0 (s + 1) 0;
  for r = 0 to t.batch_len - 1 do
    let sh = shard_of t (owner_of_state t.batch_ev.(r).state) in
    off.(sh + 1) <- off.(sh + 1) + 1
  done;
  for i = 0 to s - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i);
    cur.(i) <- off.(i)
  done;
  if Array.length t.pb_ev < t.batch_len then begin
    t.pb_ev <- Array.make (2 * t.batch_len) dummy_ev;
    t.pb_rank <- Array.make (2 * t.batch_len) 0
  end;
  let any_live = ref false in
  for r = 0 to t.batch_len - 1 do
    let ev = t.batch_ev.(r) in
    if ev.state land cancelled_bit = 0 then any_live := true;
    let sh = shard_of t (owner_of_state ev.state) in
    let idx = cur.(sh) in
    t.pb_ev.(idx) <- ev;
    t.pb_rank.(idx) <- t.base_rank + r;
    cur.(sh) <- idx + 1
  done;
  (* The clock is advanced once, before the barrier: worker domains read
     [now] but must not write it. *)
  if !any_live then t.clock <- tick;
  Exec.Pool.run_batch pool s (fun sh ->
      let ctx = Domain.DLS.get t.ctx_key in
      ctx.shard <- sh;
      let fired = ref 0 in
      for idx = off.(sh) to off.(sh + 1) - 1 do
        let ev = t.pb_ev.(idx) in
        ctx.rank <- t.pb_rank.(idx);
        let st = ev.state in
        ev.state <- st lor fired_bit;
        if st land cancelled_bit = 0 then begin
          incr fired;
          let action = ev.action in
          ev.action <- noop;
          action ()
        end
      done;
      ctx.rank <- -1;
      ctx.shard <- -1;
      t.shard_fired.(sh) <- !fired);
  for sh = 0 to s - 1 do
    t.processed <- t.processed + t.shard_fired.(sh);
    t.shard_fired.(sh) <- 0
  done;
  (* The batch buffers outlive the step: drop the fired events now. *)
  Array.fill t.batch_ev 0 t.batch_len dummy_ev;
  Array.fill t.pb_ev 0 t.batch_len dummy_ev

(* Merge one sub-round's staged effects back into the step: schedules in
   canonical order (same-tick ones refill the batch for the next
   sub-round, later ones enter the queue), then the owed husk notes,
   then the component flush hooks (Net.Link_stats cross-shard staging). *)
let merge_subround t tick =
  let total = Array.fold_left (fun acc v -> acc + v.sn) 0 t.staging in
  if total > 0 then begin
    let bufs =
      Array.map
        (fun v ->
          let a = Array.sub v.sa 0 v.sn in
          (* Release the staged references: the buffer keeps its capacity
             across steps and must not pin events from finished ones. *)
          Array.fill v.sa 0 v.sn dummy_staged;
          v.sn <- 0;
          a)
        t.staging
    in
    let merged = Exec.Pool.merge_by ~rank:(fun stg -> stg.s_rank) bufs in
    Array.iter
      (fun stg ->
        let ev = stg.s_ev in
        ev.state <- ev.state lor (t.next_id lsl id_shift);
        t.next_id <- t.next_id + 1;
        if stg.s_at = tick then batch_push t ev else Wheel.add t.queue ~prio:stg.s_at ev)
      merged
  end;
  for sh = 0 to t.shards - 1 do
    for _ = 1 to t.deferred_dead.(sh) do
      Wheel.note_dead t.queue
    done;
    t.deferred_dead.(sh) <- 0
  done;
  List.iter (fun f -> f ()) t.step_hooks

(* Parallel stepping: drain every event of the frontier tick into a
   batch, fire the batch shard-parallel on the pool, merge staged
   effects, and repeat sub-rounds while the firing keeps scheduling
   into the same tick. Equivalent to [fire_loop]: pop order is
   preserved, and merged insertion order equals program order (see
   merge_by). *)
let rec drain_tick t tick =
  if Wheel.next_tick t.queue = tick then begin
    batch_push t (Wheel.pop t.queue);
    drain_tick t tick
  end

let parallel_loop t pool ~until =
  let rec step () =
    let tick = Wheel.next_tick t.queue in
    if tick <> Time.infinity && tick <= until then begin
      t.batch_len <- 0;
      drain_tick t tick;
      t.in_step <- true;
      t.base_rank <- 0;
      let rec subround () =
        if t.batch_len > 0 then begin
          let len = t.batch_len in
          fire_batch t tick pool;
          t.base_rank <- t.base_rank + len;
          t.batch_len <- 0;
          merge_subround t tick;
          subround ()
        end
      in
      subround ();
      t.in_step <- false;
      step ()
    end
  in
  step ()

(* Staging pays off only when shards really fire in parallel, and the
   recorder is not shard-safe: everything else runs the one sequential
   loop. *)
let run t ~until =
  match t.pool with
  | Some pool when t.shards > 1 && not !(t.tracing) -> parallel_loop t pool ~until
  | _ -> fire_loop t ~until

let run_all t = run t ~until:Time.infinity
let pending t = Wheel.size t.queue
let processed t = t.processed
