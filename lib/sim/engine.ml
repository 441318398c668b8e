(* Events are data. A pending event is a pool slot of four ints:

     seq   the event's sequential id (the trace id), or [free] once the
           slot holds no event;
     ko    kind lsl owner_bits lor (owner + 1): 0 in the owner field
           means ownerless;
     a, b  the kind's two payload words.

   The timing wheel queues bare slot indices as its handles, on lists
   threaded through link words of its own, two per slot. An event is
   never withdrawn: every queued slot fires, and firing frees it. A
   caller that no longer wants an event lets it fire and checks, in its
   handler, that it still applies (see [Net.Faults]).

   A kind is a handler registered once per engine. Kind 0 is built in:
   its handler fires the [unit -> unit] closure its [a] indexes in a
   side table, which is what {!schedule} posts, and the loops below
   treat it as any other kind. A closure never fires on a worker domain:
   [schedule] refuses a sharded engine, and [set_sharding] refuses to
   shard while a closure is pending. Every library caller registers
   its own kinds and posts ints, so an event allocates nothing once the
   pool, and with it the wheel's links and slot levels, has grown to
   the run's high-water mark.

   The pool stores slots in chunks of [chunk_slots] slots: 256 words,
   the largest block the minor heap takes, so a chunk is born young and
   growth never copies one. Chunk 0 starts at [first_slots] slots and
   doubles up to a full chunk, because most small worlds keep only a
   handful of events pending. Free slots form two lists threaded
   through their [a] words, one below the capacity midpoint and one
   above, and slots never used since the pool grew sit above a
   frontier; taking from the low list first lets the high chunks empty
   out, and [run] trims the pool on exit (see [trim]), and the wheel's
   links with it. Trimming never happens per event: a run would thrash
   between growing and shrinking. *)

let owner_bits = 21
let owner_mask = (1 lsl owner_bits) - 1
let owner_limit = owner_mask - 1
let chunk_shift = 6
let chunk_slots = 1 lsl chunk_shift
let chunk_mask = chunk_slots - 1
let first_slots = 8

(* The seq word of a slot that holds no event. *)
let free = -1

let closure_kind = 0
let noop () = ()

type pool = {
  mutable chunks : int array array;
  mutable cap : int; (* slots *)
  mutable live : int;
  mutable peak : int; (* most slots live at once since the last trim *)
  mutable free_lo : int; (* free slots below cap / 2, -1 = none *)
  mutable free_hi : int; (* free slots at or above cap / 2 *)
  mutable fresh : int; (* slots [fresh, cap) are free and on neither list *)
}

(* Events posted during a parallel step, per shard: six ints per
   event (at, the pop rank of the event that posted it, kind, owner,
   a, b). The rank makes the end-of-step merge canonical: (rank,
   per-shard program order) is the order [fire_loop] would have posted
   in, whatever the shard count. *)
let staged_words = 6

type staging = { mutable si : int array; mutable sn : int (* staged events *) }

(* Per-domain fire context: which shard is firing and the rank of the
   event being fired. Domain-local so the parallel fire phase can route
   nested [post] calls without touching shared state. *)
type fire_ctx = { mutable rank : int; mutable shard : int }

type t = {
  mutable clock : Time.t;
  queue : Wheel.t; (* pending slots *)
  pool : pool;
  mutable handlers : (int -> int -> int -> unit) array; (* by kind; 0 fires closures *)
  (* The closure side table: cells of closure-kind events, a free
     list threaded through [clo_next]. *)
  mutable closures : (unit -> unit) array;
  mutable clo_next : int array;
  mutable clo_free : int;
  mutable clo_live : int;
  mutable processed : int;
  mutable next_id : int;
  recorder : Obs.Recorder.t;
  tracing : bool ref; (* the recorder's live full-tracing flag *)
  (* Parallel stepping (shards = 0: never configured). *)
  mutable shards : int;
  mutable shard_n : int; (* process count the partition covers *)
  mutable pool_exec : Exec.Pool.t option;
  mutable staging : staging array; (* per shard, reused across steps *)
  mutable in_step : bool; (* a parallel step is running *)
  mutable base_rank : int; (* rank of the current sub-round's first event *)
  mutable batch : int array; (* the tick's event slots in pop order *)
  mutable batch_len : int;
  mutable pb_ev : int array; (* parallel scatter: batch grouped by shard *)
  mutable pb_rank : int array;
  mutable pb_off : int array; (* shard s owns pb indices [off.(s), off.(s+1)) *)
  mutable pb_cur : int array;
  mutable step_hooks : (unit -> unit) list; (* run after each sub-round merge *)
  ctx_key : fire_ctx Domain.DLS.key;
}

(* ---- The pool ------------------------------------------------------- *)

(* Slot [s < cap] is words [base s .. base s + 3] of [chunk p s]; every
   access below is to such a slot, hence unchecked. *)
let[@inline] chunk p s = Array.unsafe_get p.chunks (s lsr chunk_shift)
let[@inline] base s = (s land chunk_mask) lsl 2
let[@inline] get (c : int array) o = Array.unsafe_get c o
let[@inline] set (c : int array) o (v : int) = Array.unsafe_set c o v

(* Push free slot [s] on the list for its half; [s] must be < cap. *)
let[@inline][@lint.hot] give p s =
  let c = chunk p s and o = base s in
  set c o free;
  if 2 * s < p.cap then begin
    set c (o + 2) p.free_lo;
    p.free_lo <- s
  end
  else begin
    set c (o + 2) p.free_hi;
    p.free_hi <- s
  end

(* New storage is filled with [free] and joins no list: [take] hands
   out slots [fresh, cap) in order once both lists are empty, so growth
   costs one young allocation and no per-slot work. *)
let grow p =
  let old = p.cap in
  if old < chunk_slots then begin
    (* Chunk 0 doubles, by copy, until it is a full chunk. *)
    let cap = min chunk_slots (2 * old) in
    let c = Array.make (cap * 4) free in
    Array.blit p.chunks.(0) 0 c 0 (old * 4);
    p.chunks.(0) <- c;
    p.cap <- cap
  end
  else begin
    let n = old lsr chunk_shift in
    if n = Array.length p.chunks then begin
      (* The directory grows fourfold: its copies, not the chunks, were
         most of the cost of growing a pool to a thousand slots. *)
      let d = Array.make (4 * n) [||] in
      Array.blit p.chunks 0 d 0 n;
      p.chunks <- d
    end;
    p.chunks.(n) <- Array.make (chunk_slots * 4) free;
    p.cap <- old + chunk_slots
  end

let[@inline][@lint.hot] take p =
  let s =
    if p.free_lo >= 0 then begin
      let s = p.free_lo in
      p.free_lo <- get (chunk p s) (base s + 2);
      s
    end
    else if p.free_hi >= 0 then begin
      let s = p.free_hi in
      p.free_hi <- get (chunk p s) (base s + 2);
      s
    end
    else begin
      if p.fresh = p.cap then grow p;
      let s = p.fresh in
      p.fresh <- s + 1;
      s
    end
  in
  let live = p.live + 1 in
  p.live <- live;
  if live > p.peak then p.peak <- live;
  s

let rec free_from c o = o >= Array.length c || (get c o = free && free_from c (o + 4))
let chunk_empty p k = free_from p.chunks.(k) 0

(* Both free lists, rebuilt after the capacity changed: every free slot
   below [fresh], lowest at the heads. *)
let rebuild_free p =
  p.fresh <- min p.fresh p.cap;
  p.free_lo <- -1;
  p.free_hi <- -1;
  for s = p.fresh - 1 downto 0 do
    if get (chunk p s) (base s) = free then give p s
  done

(* Called once per [run], never per event. Past chunk 0, drop trailing
   empty chunks the last run's peak did not need: keeping the peak
   means a world whose pending count swings within each run does not
   regrow every run. A lone chunk 0 is cut down to half again the live
   count (but not below its highest live slot) when that saves a
   quarter of it, since small worlds are many and each keeps its pool
   after its last run; regrowing it costs at most a few copies of at
   most 256 words. *)
let trim p =
  if p.cap > chunk_slots then begin
    if p.cap - chunk_slots >= p.peak then begin
      let n = p.cap lsr chunk_shift in
      let keep = ref n in
      while !keep > 1 && (!keep - 1) * chunk_slots >= p.peak && chunk_empty p (!keep - 1) do
        decr keep
      done;
      if !keep < n then begin
        p.chunks <- Array.sub p.chunks 0 !keep;
        p.cap <- !keep * chunk_slots;
        rebuild_free p
      end
    end
  end
  else begin
    let c = p.chunks.(0) in
    let h = ref (min p.fresh p.cap) in
    while !h > 0 && get c (base (!h - 1)) = free do
      decr h
    done;
    let cap = max first_slots (max !h (p.live + (p.live / 2))) in
    if 4 * cap <= 3 * p.cap then begin
      p.chunks.(0) <- Array.sub c 0 (cap * 4);
      p.cap <- cap;
      rebuild_free p
    end
  end;
  p.peak <- p.live

(* ---- The closure side table ----------------------------------------- *)

let clo_give t i =
  t.closures.(i) <- noop;
  t.clo_next.(i) <- t.clo_free;
  t.clo_free <- i;
  t.clo_live <- t.clo_live - 1

(* The closure kind's handler. The cell is freed before [f] runs, as
   the event's slot is, so [f] may schedule into both. *)
let fire_closure t _ i _ =
  let f = t.closures.(i) in
  clo_give t i;
  f ()

(* The table, and kind 0's handler over it, are made on the first
   [schedule]: an engine that never schedules a closure carries
   neither. *)
let clo_take t f =
  if t.clo_free < 0 then begin
    let n = Array.length t.closures in
    if n = 0 then t.handlers.(closure_kind) <- fire_closure t;
    let m = max 4 (2 * n) in
    let cl = Array.make m noop and nx = Array.make m (-1) in
    Array.blit t.closures 0 cl 0 n;
    Array.blit t.clo_next 0 nx 0 n;
    for i = m - 1 downto n do
      nx.(i) <- t.clo_free;
      t.clo_free <- i
    done;
    t.closures <- cl;
    t.clo_next <- nx
  end;
  let i = t.clo_free in
  t.clo_free <- t.clo_next.(i);
  t.closures.(i) <- f;
  t.clo_live <- t.clo_live + 1;
  i

(* Free slot [s] of a fired event. *)
let[@inline][@lint.hot] free_event t s =
  let p = t.pool in
  give p s;
  p.live <- p.live - 1

(* ---- Construction --------------------------------------------------- *)

let create ?recorder () =
  let recorder = match recorder with Some r -> r | None -> Obs.Recorder.create () in
  let pool =
    {
      chunks = [| Array.make (first_slots * 4) free |];
      cap = first_slots;
      live = 0;
      peak = 0;
      free_lo = -1;
      free_hi = -1;
      fresh = 0;
    }
  in
  {
    clock = Time.zero;
    queue = Wheel.create ();
    pool;
    handlers = [| (fun _ _ _ -> ()) |];
    closures = [||];
    clo_next = [||];
    clo_free = -1;
    clo_live = 0;
    processed = 0;
    next_id = 0;
    recorder;
    tracing = Obs.Recorder.tracing_flag recorder;
    shards = 0;
    shard_n = 0;
    pool_exec = None;
    staging = [||];
    in_step = false;
    base_rank = 0;
    batch = [||];
    batch_len = 0;
    pb_ev = [||];
    pb_rank = [||];
    pb_off = [||];
    pb_cur = [||];
    step_hooks = [];
    ctx_key = Domain.DLS.new_key (fun () -> { rank = -1; shard = -1 });
  }

let now t = t.clock
let recorder t = t.recorder

let register t handler =
  if t.in_step then invalid_arg "Engine.register: cannot register inside a step";
  let k = Array.length t.handlers in
  if k > (max_int lsr owner_bits) then invalid_arg "Engine.register: too many kinds";
  t.handlers <- Array.append t.handlers [| handler |];
  k

let set_sharding t ~pool ~shards ~n () =
  if t.in_step then invalid_arg "Engine.set_sharding: cannot reconfigure inside a step";
  if n <= 0 then invalid_arg "Engine.set_sharding: n must be positive";
  if n > owner_limit then
    invalid_arg
      (Printf.sprintf "Engine.set_sharding: n=%d exceeds the %d-bit owner field" n owner_bits);
  if shards < 1 then invalid_arg "Engine.set_sharding: shards must be >= 1";
  let shards = min shards n in
  if shards > 1 && t.clo_live > 0 then
    invalid_arg "Engine.set_sharding: closure events are pending; post registered kinds";
  t.shards <- shards;
  t.shard_n <- n;
  t.pool_exec <- Some pool;
  t.staging <- Array.init shards (fun _ -> { si = [||]; sn = 0 });
  t.pb_off <- Array.make (shards + 1) 0;
  t.pb_cur <- Array.make shards 0

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

(* ---- Posting -------------------------------------------------------- *)

let past t at =
  invalid_arg (Printf.sprintf "Engine.schedule: at=%d is in the past (now=%d)" at t.clock)

(* A fresh slot and the next seq for an event; returns the slot. *)
let[@inline][@lint.hot] alloc_event t ~kind ~owner a b =
  let p = t.pool in
  let s = take p in
  let seq = t.next_id in
  t.next_id <- seq + 1;
  let c = chunk p s and o = base s in
  set c o seq;
  set c (o + 1) ((kind lsl owner_bits) lor (owner + 1));
  set c (o + 2) a;
  set c (o + 3) b;
  s

(* Queue a validated event. *)
let[@inline][@lint.hot] enqueue t ~kind ~owner ~at a b =
  let s = alloc_event t ~kind ~owner a b in
  Wheel.add t.queue ~prio:at s;
  (* Call-site guard: the emission call is skipped entirely when full
     tracing is off, keeping the hot path at one load + branch. *)
  if !(t.tracing) then Obs.Recorder.sched t.recorder ~time:t.clock ~id:(t.next_id - 1) ~at

(* Parallel step: the new event goes into the firing shard's staging
   buffer and reaches the queue at the sub-round's merge point, in
   canonical (rank, program-order) order. Its slot and seq are
   assigned at the merge too, on the submitting domain: the pool and
   [next_id] are never touched from worker domains, and the seqs land
   on the values [fire_loop] would have handed out, in the same order.
   No sched record: tracing is off in a parallel step. *)
let stage t ~kind ~owner ~at a b =
  let ctx = Domain.DLS.get t.ctx_key in
  let v = t.staging.(if ctx.shard >= 0 then ctx.shard else 0) in
  let i = v.sn * staged_words in
  if i + staged_words > Array.length v.si then begin
    let na = Array.make (max (8 * staged_words) (2 * Array.length v.si)) 0 in
    Array.blit v.si 0 na 0 i;
    v.si <- na
  end;
  v.si.(i) <- at;
  v.si.(i + 1) <- ctx.rank;
  v.si.(i + 2) <- kind;
  v.si.(i + 3) <- owner;
  v.si.(i + 4) <- a;
  v.si.(i + 5) <- b;
  v.sn <- v.sn + 1

let[@inline] clamp_owner owner = if owner < -1 || owner > owner_limit then -1 else owner

let[@lint.hot] post t ~kind ~owner ~at a b =
  if kind <= closure_kind || kind >= Array.length t.handlers then
    invalid_arg "Engine.post: unregistered kind";
  if at <> Time.infinity then begin
    if at < t.clock then past t at;
    let owner = clamp_owner owner in
    if t.in_step then stage t ~kind ~owner ~at a b else enqueue t ~kind ~owner ~at a b
  end

(* A sharded engine never sees a closure, so none fires on a worker
   domain and a parallel step stages ints only. *)
let schedule t ?(owner = -1) ~at f =
  if t.shards > 1 then
    invalid_arg "Engine.schedule: the engine is sharded; post a registered kind";
  if at <> Time.infinity then begin
    if at < t.clock then past t at;
    enqueue t ~kind:closure_kind ~owner:(clamp_owner owner) ~at (clo_take t f) 0
  end

let schedule_after t ?owner ~delay f = schedule t ?owner ~at:(Time.add t.clock delay) f

(* ---- The sequential loop -------------------------------------------- *)

(* The fire loop is a toplevel tail recursion rather than a [ref]-driven
   while: it runs once per event over the whole simulation, and keeping
   it allocation-free means the only heap traffic per fired event is
   whatever the handler itself does. The slot is freed before the
   handler runs, so the handler may post into it. [Wheel.next_tick] is
   [Time.infinity] (max_int) on an empty queue, a tick no event is ever
   queued at. *)
let[@lint.hot] rec fire_loop t ~until =
  let at = Wheel.next_tick t.queue in
  if at <> Time.infinity && at <= until then begin
    let s = Wheel.pop t.queue in
    let c = chunk t.pool s and o = base s in
    let ko = get c (o + 1) and a = get c (o + 2) and b = get c (o + 3) in
    t.clock <- at;
    t.processed <- t.processed + 1;
    if !(t.tracing) then Obs.Recorder.fire t.recorder ~time:at ~id:(get c o);
    free_event t s;
    t.handlers.(ko lsr owner_bits) ((ko land owner_mask) - 1) a b;
    fire_loop t ~until
  end

(* ---- Parallel stepping ----------------------------------------------- *)

let batch_push t s =
  if t.batch_len >= Array.length t.batch then begin
    let na = Array.make (max 16 (2 * Array.length t.batch)) (-1) in
    Array.blit t.batch 0 na 0 t.batch_len;
    t.batch <- na
  end;
  t.batch.(t.batch_len) <- s;
  t.batch_len <- t.batch_len + 1

let owner_of t s = (get (chunk t.pool s) (base s + 1) land owner_mask) - 1

(* Fire one batch entry on a worker domain. The slot is left as it is:
   freeing touches the free lists, which belong to the submitting
   domain, so the batch frees it once every shard has fired. *)
let fire_in_step t s =
  let c = chunk t.pool s and o = base s in
  let ko = get c (o + 1) in
  t.handlers.(ko lsr owner_bits) ((ko land owner_mask) - 1) (get c (o + 2)) (get c (o + 3))

(* Fire one batch: group it by shard (preserving pop order within each
   shard) and fire the shards on the pool. Worker domains only read the
   pool and never touch the queue, the recorder or [next_id]: their
   only shared-state writes are the per-shard staging buffers. *)
let fire_batch t tick pool =
  let s = t.shards in
  let off = t.pb_off and cur = t.pb_cur in
  Array.fill off 0 (s + 1) 0;
  for r = 0 to t.batch_len - 1 do
    let sh = shard_of t (owner_of t t.batch.(r)) in
    off.(sh + 1) <- off.(sh + 1) + 1
  done;
  for i = 0 to s - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i);
    cur.(i) <- off.(i)
  done;
  if Array.length t.pb_ev < t.batch_len then begin
    t.pb_ev <- Array.make (2 * t.batch_len) (-1);
    t.pb_rank <- Array.make (2 * t.batch_len) 0
  end;
  for r = 0 to t.batch_len - 1 do
    let ev = t.batch.(r) in
    let sh = shard_of t (owner_of t ev) in
    let idx = cur.(sh) in
    t.pb_ev.(idx) <- ev;
    t.pb_rank.(idx) <- t.base_rank + r;
    cur.(sh) <- idx + 1
  done;
  (* The clock is advanced once, before the barrier: worker domains read
     [now] but must not write it. *)
  t.clock <- tick;
  Exec.Pool.run_batch pool s (fun sh ->
      let ctx = Domain.DLS.get t.ctx_key in
      ctx.shard <- sh;
      for idx = off.(sh) to off.(sh + 1) - 1 do
        ctx.rank <- t.pb_rank.(idx);
        fire_in_step t t.pb_ev.(idx)
      done;
      ctx.rank <- -1;
      ctx.shard <- -1);
  t.processed <- t.processed + t.batch_len;
  for r = 0 to t.batch_len - 1 do
    free_event t t.batch.(r)
  done

(* Head of shard [sh]'s unmerged staged events, as a rank; max_int
   when it has none left. *)
let head_rank t cur sh =
  let v = t.staging.(sh) in
  if cur.(sh) < v.sn then v.si.((cur.(sh) * staged_words) + 1) else max_int

(* Merge one sub-round's staged effects back into the step: posts
   enter in canonical order (same-tick ones refill the batch for the
   next sub-round, later ones enter the queue), then the component
   flush hooks run (Net.Link_stats cross-shard staging). Ranks of
   different shards never tie (a rank names one fired event, fired on
   one shard), so always taking the lowest head rank is the stable rank
   sort of the shard-ordered concatenation. *)
let merge_subround t tick =
  let shards = Array.length t.staging in
  let cur = t.pb_cur in
  Array.fill cur 0 shards 0;
  let rec next () =
    let best = ref (-1) and best_rank = ref max_int in
    for sh = 0 to shards - 1 do
      let r = head_rank t cur sh in
      if r < !best_rank then begin
        best := sh;
        best_rank := r
      end
    done;
    if !best >= 0 then begin
      let v = t.staging.(!best) in
      let i = cur.(!best) * staged_words in
      cur.(!best) <- cur.(!best) + 1;
      let at = v.si.(i) in
      let s = alloc_event t ~kind:v.si.(i + 2) ~owner:v.si.(i + 3) v.si.(i + 4) v.si.(i + 5) in
      if at = tick then batch_push t s else Wheel.add t.queue ~prio:at s;
      next ()
    end
  in
  next ();
  Array.iter (fun v -> v.sn <- 0) t.staging;
  List.iter (fun f -> f ()) t.step_hooks

(* Parallel stepping: drain every event of the frontier tick into a
   batch, fire the batch shard-parallel on the pool, merge staged
   effects, and repeat sub-rounds while the firing keeps scheduling
   into the same tick. Equivalent to [fire_loop]: pop order is
   preserved, and merged insertion order equals program order. *)
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
  (match t.pool_exec with
  | Some pool when t.shards > 1 && not !(t.tracing) -> parallel_loop t pool ~until
  | _ -> fire_loop t ~until);
  trim t.pool;
  Wheel.trim t.queue ~handles:t.pool.cap

let run_all t = run t ~until:Time.infinity
let pending t = Wheel.size t.queue
let processed t = t.processed
