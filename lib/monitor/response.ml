type session = { pid : Dining.Types.pid; started : Sim.Time.t; served : Sim.Time.t }

(* A registered F1 series: per-bucket latency sums and counts, indexed
   by [served / bucket] and grown as service time advances. *)
type series = { bucket : int; mutable sums : int array; mutable counts : int array }

let recent_size = 32

(* Fields per record in the recent ring: pid, started, served. *)
let recent_stride = 3

(* Per pid, two adjacent ints of [cells], both zero at attach:
   [2 pid] the start of its open session + 1 (0 = none), and
   [2 pid + 1] its doorway state: [not_hungry], [outside], or the time
   of its doorway entry + 2. *)
let not_hungry = 0 (* latest transition is not Hungry *)
let outside = 1 (* hungry, not yet inside the doorway *)

(* No session log: latencies go to an exact multiset, registered
   readers and callbacks see each session as it completes, and a ring
   keeps the last [recent_size] sessions, allocated at the first. The
   doorway and fork waits live only in their registry histograms,
   which are exact multisets too. *)
type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  cells : int array; (* pid -> open session and doorway state, see above *)
  latencies : Stats.Multiset.t;
  doorway : Obs.Metrics.histogram;
  fork : Obs.Metrics.histogram;
  mutable served : int;
  mutable on_served : (Dining.Types.pid -> Sim.Time.t -> Sim.Time.t -> unit) list;
  mutable series : series list;
  mutable recent : int array;
}

let grow_series s b =
  let size = max 8 (max (b + 1) (2 * Array.length s.sums)) in
  let grown a =
    let g = Array.make size 0 in
    Array.blit a 0 g 0 (Array.length a);
    g
  in
  s.sums <- grown s.sums;
  s.counts <- grown s.counts

let first_session t = t.recent <- Array.make (recent_size * recent_stride) 0

let[@lint.hot] rec feed_series started served list =
  match list with
  | [] -> ()
  | s :: rest ->
      let b = served / s.bucket in
      if b >= Array.length s.sums then grow_series s b;
      s.sums.(b) <- s.sums.(b) + (served - started);
      s.counts.(b) <- s.counts.(b) + 1;
      feed_series started served rest

let[@lint.hot] rec notify pid started served list =
  match list with
  | [] -> ()
  | f :: rest ->
      f pid started served;
      notify pid started served rest

(* A doorway entry splits the session only while the pid's latest
   transition is Hungry; the open session survives Thinking, so the
   doorway cell carries that state. *)
let[@lint.hot] on_doorway t pid =
  if t.cells.((2 * pid) + 1) <> not_hungry then begin
    let now = Sim.Engine.now t.engine in
    let wait = now - (t.cells.(2 * pid) - 1) in
    t.cells.((2 * pid) + 1) <- now + 2;
    Obs.Metrics.observe t.doorway wait
  end

let[@lint.hot] on_phase t pid phase =
  let c = 2 * pid in
  match phase with
  | Dining.Types.Hungry ->
      t.cells.(c) <- Sim.Engine.now t.engine + 1;
      if t.cells.(c + 1) = not_hungry then t.cells.(c + 1) <- outside
  | Dining.Types.Eating ->
      let entered = t.cells.(c + 1) in
      t.cells.(c + 1) <- not_hungry;
      if entered > outside then begin
        let wait = Sim.Engine.now t.engine - (entered - 2) in
        Obs.Metrics.observe t.fork wait
      end;
      let since = t.cells.(c) in
      if since > 0 then begin
        let started = since - 1 in
        let served = Sim.Engine.now t.engine in
        t.cells.(c) <- 0;
        if t.served = 0 then first_session t;
        let base = t.served mod recent_size * recent_stride in
        t.recent.(base) <- pid;
        t.recent.(base + 1) <- started;
        t.recent.(base + 2) <- served;
        t.served <- t.served + 1;
        Stats.Multiset.add t.latencies (served - started);
        feed_series started served t.series;
        notify pid started served t.on_served
      end
  | Dining.Types.Thinking -> t.cells.(c + 1) <- not_hungry

let attach ?(metrics = Obs.Metrics.create ()) engine faults (instance : Dining.Instance.t) =
  let n = Net.Faults.n faults in
  let t =
    {
      engine;
      faults;
      cells = Array.make (2 * n) 0;
      latencies = Stats.Multiset.create ();
      doorway = Obs.Metrics.histogram metrics "daemon.doorway_wait";
      fork = Obs.Metrics.histogram metrics "daemon.fork_wait";
      served = 0;
      on_served = [];
      series = [];
      recent = [||];
    }
  in
  instance.add_listener (on_phase t);
  instance.add_doorway_listener (on_doorway t);
  t

let before_first_session t fn =
  if t.served > 0 then invalid_arg (Printf.sprintf "Response.%s: register before the first session" fn)

let on_served t f =
  before_first_session t "on_served";
  t.on_served <- t.on_served @ [ f ]

let completed t =
  let kept = min t.served recent_size in
  List.init kept (fun i ->
      let base = (t.served - kept + i) mod recent_size * recent_stride in
      { pid = t.recent.(base); started = t.recent.(base + 1); served = t.recent.(base + 2) })

let durations t = Stats.Multiset.to_list t.latencies
let summary t = Stats.Multiset.summary t.latencies
let doorway_waits t = Stats.Multiset.to_list t.doorway
let fork_waits t = Stats.Multiset.to_list t.fork
let doorway_summary t = Stats.Multiset.summary t.doorway
let fork_summary t = Stats.Multiset.summary t.fork

(* Walking pids downwards while consing yields ascending pid order. *)
let open_sessions t =
  let acc = ref [] in
  for pid = (Array.length t.cells / 2) - 1 downto 0 do
    let since = t.cells.(2 * pid) in
    if since > 0 && not (Net.Faults.is_crashed t.faults pid) then acc := (pid, since - 1) :: !acc
  done;
  !acc

let served_count t = t.served

let response_series t ~bucket =
  if bucket <= 0 then invalid_arg "Response.response_series: bucket must be positive";
  before_first_session t "response_series";
  let s = { bucket; sums = [||]; counts = [||] } in
  t.series <- s :: t.series;
  fun () ->
    let acc = ref [] in
    for b = Array.length s.counts - 1 downto 0 do
      let count = s.counts.(b) in
      if count > 0 then
        acc := (float_of_int (b * bucket), float_of_int s.sums.(b) /. float_of_int count) :: !acc
    done;
    !acc
