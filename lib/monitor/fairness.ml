type overtake = {
  time : Sim.Time.t;
  overtaker : Dining.Types.pid;
  victim : Dining.Types.pid;
  session_start : Sim.Time.t;
  count : int;
}

(* A registered windowed-max series: per-window maxima, filled as
   overtakes happen. *)
type window = { width : int; horizon : Sim.Time.t; maxima : int array }

let recent_size = 32

(* Fields per record in the recent ring: time, overtaker, victim,
   session start, count. *)
let recent_stride = 5

(* Open-group times stored inline per slot; bounded waiting keeps
   groups at 2 or 3 overtakes. A slot's open group is [group_stride]
   adjacent ints — session start, size, then the inline times — so an
   overtake touches one cache line of it. *)
let inline = 3

let group_stride = 2 + inline

(* Open groups live in chunks of [chunk_slots] slots, each allocated
   at the first overtake among its slots: 51 slots of [group_stride]
   ints are 255 words, which a minor-heap block holds, and no overtake
   allocates more than one chunk. The last chunk holds only the slots
   left. *)
let chunk_slots = 51

(* Per-transition state is flat: [counts] is indexed by the directed
   slot (victim, overtaker), so the reset when a victim eats zeroes the
   victim's own CSR row, and [hungry_since] marks "not hungry" with -1
   because 0 is a valid session start.

   No query walks a log. A {e group} is the run of overtakes of one
   directed slot that share the victim's session start; a slot's group
   stays open until the slot's next overtake carries another session
   start (not when the victim eats: a victim that eats, thinks and turns
   hungry within one tick starts a session at the same time, and those
   overtakes belong to the same group). The open group keeps its
   overtake times, the first [inline] in [groups] and any more in a
   per-slot spill array; closing folds them into [suffix]. The chunk
   index and the recent ring are allocated at the first overtake and a
   chunk at the first overtake among its slots, so a world that never
   sees one pays only for [hungry_since] and [counts], and one that
   does pays at most once per chunk from then on unless a group
   outgrows [inline]. *)
type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  off : int array; (* CSR offsets, owned by the graph *)
  nbr : Dining.Types.pid array; (* CSR targets, owned by the graph *)
  rev : int array; (* slot (i,j) -> slot (j,i), owned by the graph *)
  hungry_since : Sim.Time.t array; (* pid -> start of its hungry session, -1 = not hungry *)
  counts : int array; (* slot (victim, overtaker) -> consecutive count in the victim's session *)
  mutable total : int; (* overtakes so far *)
  mutable max_count : int;
  mutable groups : int array array;
      (* slot / chunk_slots -> its chunk ([||] until its first overtake),
         where slot mod chunk_slots * group_stride + (0: session start,
         1: size (0 = no open group), 2 + i: i-th time) *)
  mutable spill : Sim.Time.t array array; (* slot -> its times from index [inline] on *)
  mutable suffix : Sim.Time.t array;
      (* j -> latest j-th-most-recent overtake of any closed group, 1 <= j <= suffix_len *)
  mutable suffix_len : int; (* size of the largest closed group *)
  mutable windows : window list;
  mutable recent : int array; (* ring of the last [recent_size] overtakes *)
}

(* Allocation off the per-event path: first-overtake set-up and the
   doubling growth of the count- and rank-indexed arrays. *)
let first_overtake t =
  t.groups <- Array.make (((Array.length t.counts - 1) / chunk_slots) + 1) [||];
  t.recent <- Array.make (recent_size * recent_stride) 0

let add_chunk t b =
  let slots = min chunk_slots (Array.length t.counts - (b * chunk_slots)) in
  let c = Array.make (slots * group_stride) 0 in
  t.groups.(b) <- c;
  c

let grown a need fill =
  let b = Array.make (max 4 (max need (2 * Array.length a))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_suffix t need = t.suffix <- grown t.suffix need (-1)
let grow_spill t k need =
  if Array.length t.spill = 0 then t.spill <- Array.make (Array.length t.counts) [||];
  t.spill.(k) <- grown t.spill.(k) need 0

(* Slot [k]'s open group is [group_stride] ints of chunk [c] from [g]. *)
let[@lint.hot] group_time t c g k i =
  if i < inline then c.(g + 2 + i) else t.spill.(k).(i - inline)

(* Fold slot [k]'s open group into [suffix]: its j-th-most-recent time
   competes for rank j. *)
let[@lint.hot] close_group t c g k =
  let m = c.(g + 1) in
  if m >= Array.length t.suffix then grow_suffix t (m + 1);
  for j = 1 to m do
    let time = group_time t c g k (m - j) in
    if time > t.suffix.(j) then t.suffix.(j) <- time
  done;
  if m > t.suffix_len then t.suffix_len <- m;
  c.(g + 1) <- 0

let[@lint.hot] rec feed_windows time count list =
  match list with
  | [] -> ()
  | w :: rest ->
      if time <= w.horizon then begin
        let b = time / w.width in
        if count > w.maxima.(b) then w.maxima.(b) <- count
      end;
      feed_windows time count rest

let[@lint.hot] record t k ~time ~overtaker ~victim ~session_start ~count =
  if t.total = 0 then first_overtake t;
  let base = t.total mod recent_size * recent_stride in
  t.recent.(base) <- time;
  t.recent.(base + 1) <- overtaker;
  t.recent.(base + 2) <- victim;
  t.recent.(base + 3) <- session_start;
  t.recent.(base + 4) <- count;
  t.total <- t.total + 1;
  if count > t.max_count then t.max_count <- count;
  let b = k / chunk_slots and g = k mod chunk_slots * group_stride in
  let c = t.groups.(b) in
  let c = if Array.length c = 0 then add_chunk t b else c in
  if c.(g + 1) > 0 && c.(g) <> session_start then close_group t c g k;
  c.(g) <- session_start;
  let len = c.(g + 1) in
  if len < inline then c.(g + 2 + len) <- time
  else begin
    if Array.length t.spill = 0 || len - inline >= Array.length t.spill.(k) then
      grow_spill t k (len - inline + 1);
    t.spill.(k).(len - inline) <- time
  end;
  c.(g + 1) <- len + 1;
  feed_windows time count t.windows

let[@lint.hot] on_phase t pid phase =
  match phase with
  | Dining.Types.Hungry -> t.hungry_since.(pid) <- Sim.Engine.now t.engine
  | Dining.Types.Eating ->
      let lo = t.off.(pid) and hi = t.off.(pid + 1) in
      (* The eater's own hungry session ends: counts against it reset. *)
      t.hungry_since.(pid) <- -1;
      for s = lo to hi - 1 do
        t.counts.(s) <- 0
      done;
      (* And it overtakes every currently hungry live neighbor. *)
      let now = Sim.Engine.now t.engine in
      for s = lo to hi - 1 do
        let victim = t.nbr.(s) in
        let session_start = t.hungry_since.(victim) in
        if session_start >= 0 && not (Net.Faults.is_crashed t.faults victim) then begin
          let k = t.rev.(s) in
          let count = t.counts.(k) + 1 in
          t.counts.(k) <- count;
          record t k ~time:now ~overtaker:pid ~victim ~session_start ~count
        end
      done
  | Dining.Types.Thinking -> t.hungry_since.(pid) <- -1

let attach engine graph faults (instance : Dining.Instance.t) =
  let t =
    {
      engine;
      faults;
      off = Cgraph.Graph.csr_offsets graph;
      nbr = Cgraph.Graph.csr_targets graph;
      rev = Cgraph.Graph.rev_slots graph;
      hungry_since = Array.make (Cgraph.Graph.n graph) (-1);
      counts = Array.make (Cgraph.Graph.dir_count graph) 0;
      total = 0;
      max_count = 0;
      groups = [||];
      spill = [||];
      suffix = [||];
      suffix_len = 0;
      windows = [];
      recent = [||];
    }
  in
  instance.add_listener (on_phase t);
  t

let overtakes t =
  let kept = min t.total recent_size in
  List.init kept (fun i ->
      let base = (t.total - kept + i) mod recent_size * recent_stride in
      {
        time = t.recent.(base);
        overtaker = t.recent.(base + 1);
        victim = t.recent.(base + 2);
        session_start = t.recent.(base + 3);
        count = t.recent.(base + 4);
      })

let max_consecutive t = t.max_count

(* Suffix form: only overtakes at or after [time] count, but a victim's
   session may have started earlier (a starved victim's single session
   spans the whole run). A group's overtakes are consecutive, so its post-cutoff
   size is its consecutive count. For closed groups the largest such
   size is the largest rank j whose [suffix] time is at or after the
   cutoff ([suffix] does not increase with j); open groups are counted
   directly. *)
let max_consecutive_after t time =
  let rec closed j = if j < t.suffix_len && t.suffix.(j + 1) >= time then closed (j + 1) else j in
  let best = ref (closed 0) in
  Array.iteri
    (fun b c ->
      for o = 0 to (Array.length c / group_stride) - 1 do
        let g = o * group_stride and k = (b * chunk_slots) + o in
        let len = c.(g + 1) in
        let rec after i = if i > 0 && group_time t c g k (i - 1) >= time then after (i - 1) else i in
        best := max !best (len - after len)
      done)
    t.groups;
  !best

let windowed_max t ~window ~horizon =
  if window <= 0 then invalid_arg "Fairness.windowed_max: window must be positive";
  if t.total > 0 then invalid_arg "Fairness.windowed_max: register before the first overtake";
  let w = { width = window; horizon; maxima = Array.make ((horizon / window) + 1) 0 } in
  t.windows <- w :: t.windows;
  fun () ->
    Array.to_list (Array.mapi (fun b m -> (float_of_int (b * window), float_of_int m)) w.maxima)
