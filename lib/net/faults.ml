type t = {
  engine : Sim.Engine.t;
  crash_at : Sim.Time.t array;
  mutable earliest : Sim.Time.t; (* the least [crash_at]: no pid is crashed before it *)
  mutable crash_kind : int; (* engine kind of crash events: owner pid, a = crash time *)
  mutable listeners : (int -> unit) list; (* newest first; fired in subscription order *)
}

(* A crash moved earlier leaves its first event queued. That event
   fires as a no-op: only the event whose time is still [crash_at]
   crashes the process, so listeners hear each crash exactly once. *)
let crash t pid at =
  if t.crash_at.(pid) = at then begin
    Obs.Recorder.crash (Sim.Engine.recorder t.engine) ~time:at ~pid;
    List.iter (fun f -> f pid) (List.rev t.listeners)
  end

let create engine ~n =
  if n <= 0 then invalid_arg "Faults.create: n must be positive";
  let t =
    {
      engine;
      crash_at = Array.make n Sim.Time.infinity;
      earliest = Sim.Time.infinity;
      crash_kind = 0;
      listeners = [];
    }
  in
  t.crash_kind <- Sim.Engine.register engine (fun pid at _ -> crash t pid at);
  t

let n t = Array.length t.crash_at

let schedule_crash t ~pid ~at =
  if pid < 0 || pid >= n t then invalid_arg "Faults.schedule_crash: bad pid";
  if at < Sim.Engine.now t.engine then invalid_arg "Faults.schedule_crash: in the past";
  if at < t.crash_at.(pid) then begin
    t.crash_at.(pid) <- at;
    if at < t.earliest then t.earliest <- at;
    Sim.Engine.post t.engine ~kind:t.crash_kind ~owner:pid ~at at 0
  end

let crash_time t pid = t.crash_at.(pid)

(* Every message and step asks; until the first crash is due the
   answer comes from this record alone, with no per-pid read. *)
let[@lint.hot] is_crashed t pid =
  let now = Sim.Engine.now t.engine in
  now >= t.earliest && t.crash_at.(pid) <= now

let correct t pid = t.crash_at.(pid) = Sim.Time.infinity

let crashed_by t time =
  let acc = ref [] in
  if time >= t.earliest then
    for pid = n t - 1 downto 0 do
      if t.crash_at.(pid) <= time then acc := pid :: !acc
    done;
  !acc

let on_crash t f = t.listeners <- f :: t.listeners
