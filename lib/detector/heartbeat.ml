(* Per-(observer, target) timer state lives in flat arrays indexed by
   the graph's dense directed slots — observer's CSR row, slot for
   target — mirroring Net.Link_stats. Every event names its slot: a
   heartbeat arrives with its channel's slot, whose reverse is the
   observer's, and a check event carries the observer's slot, so the
   per-message path does no search. *)

type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  rev : int array; (* slot -> reverse slot, owned by the graph *)
  (* Per directed slot (observer -> target). *)
  hb_last : Sim.Time.t array; (* last heartbeat arrival (creation time if none) *)
  hb_timeout : int array; (* current adaptive timeout *)
  hb_suspected : Bytes.t; (* 0 / 1 *)
  mutable last_mistake : Sim.Time.t; (* -1 = none (times are >= 0) *)
  mutable mistakes : int;
  listeners : Detector.listeners;
  mutable check_kind : int; (* engine kind of check events: owner observer, a = slot *)
}

let[@inline] suspected t s = Bytes.unsafe_get t.hb_suspected s <> '\000'

(* Monitoring side: while [observer] does not suspect [target], exactly one
   check event is pending; a suspicion freezes checking until a heartbeat
   arrives and resets it. *)
let[@inline] schedule_check t observer s at =
  Sim.Engine.post t.engine ~kind:t.check_kind ~owner:observer ~at s 0

let check t observer s =
  if not (Net.Faults.is_crashed t.faults observer) then begin
    if not (suspected t s) then begin
      let deadline = Sim.Time.add t.hb_last.(s) t.hb_timeout.(s) in
      let now = Sim.Engine.now t.engine in
      if now >= deadline then begin
        Bytes.unsafe_set t.hb_suspected s '\001';
        let target = Cgraph.Graph.slot_dst t.graph s in
        if not (Net.Faults.is_crashed t.faults target) then begin
          t.mistakes <- t.mistakes + 1;
          t.last_mistake <- now
        end;
        Obs.Recorder.suspect (Sim.Engine.recorder t.engine) ~time:now ~observer ~target ~on:true;
        Detector.notify t.listeners observer
      end
      else schedule_check t observer s deadline
    end
  end

let create ~engine ~faults ~graph ~delay ~rng ~period ~initial_timeout ~bump ?metrics () =
  if period <= 0 || initial_timeout <= 0 || bump <= 0 then
    invalid_arg "Heartbeat.create: parameters must be positive";
  let dirs = Cgraph.Graph.dir_count graph in
  (* All first beats and checks are offset from the creation time: a
     detector built on a pre-advanced engine (restarts, staged
     experiments) must not schedule into the past. *)
  let now0 = Sim.Engine.now engine in
  let t =
    {
      engine;
      faults;
      graph;
      rev = Cgraph.Graph.rev_slots graph;
      hb_last = Array.make dirs now0;
      hb_timeout = Array.make dirs initial_timeout;
      hb_suspected = Bytes.make dirs '\000';
      last_mistake = -1;
      mistakes = 0;
      listeners = Detector.listeners ();
      check_kind = 0;
    }
  in
  t.check_kind <- Sim.Engine.register engine (fun observer s _ -> check t observer s);
  let n = Cgraph.Graph.n graph in
  (* [slot] is the channel (src, dst); the observer's slot for the
     sender is its reverse. *)
  let[@lint.hot] handler ~dst ~slot () =
    let s = t.rev.(slot) in
    t.hb_last.(s) <- Sim.Engine.now engine;
    if suspected t s then begin
      Bytes.unsafe_set t.hb_suspected s '\000';
      t.hb_timeout.(s) <- t.hb_timeout.(s) + bump;
      Obs.Recorder.suspect (Sim.Engine.recorder engine) ~time:t.hb_last.(s) ~observer:dst
        ~target:(Cgraph.Graph.slot_dst graph s) ~on:false;
      Detector.notify t.listeners dst;
      schedule_check t dst s (Sim.Time.add t.hb_last.(s) t.hb_timeout.(s))
    end
  in
  let net =
    Net.Network.create_slotted ~engine ~graph ~delay ~faults ~rng
      ~kind:(fun () -> "heartbeat")
      ?metrics
      ~codec:((fun () -> 0), fun _ -> ())
      ~handler ()
  in
  (* Sending side: each process broadcasts a heartbeat to its neighborhood
     every [period] ticks, with a per-process phase jitter. *)
  let off = Cgraph.Graph.csr_offsets graph in
  let beat_kind = ref 0 in
  let beat i _ _ =
    if not (Net.Faults.is_crashed faults i) then begin
      for s = off.(i) to off.(i + 1) - 1 do
        Net.Network.send_slot net ~src:i s ()
      done;
      let at = Sim.Time.add (Sim.Engine.now engine) period in
      Sim.Engine.post engine ~kind:!beat_kind ~owner:i ~at 0 0
    end
  in
  beat_kind := Sim.Engine.register engine beat;
  for i = 0 to n - 1 do
    let at = Sim.Time.add now0 (Sim.Rng.int rng period) in
    Sim.Engine.post engine ~kind:!beat_kind ~owner:i ~at 0 0;
    for s = off.(i) to off.(i + 1) - 1 do
      schedule_check t i s (Sim.Time.add now0 initial_timeout)
    done
  done;
  let detector =
    {
      Detector.name = "heartbeat-evp";
      suspects = suspected t;
      subscribe = Detector.subscribe t.listeners;
    }
  in
  (t, detector)

let last_mistake t = if t.last_mistake < 0 then None else Some t.last_mistake
let mistakes t = t.mistakes
let timeout t ~observer ~target =
  let s = Cgraph.Graph.dir_index_opt t.graph observer target in
  if s < 0 then invalid_arg "Heartbeat: not a neighbor pair";
  t.hb_timeout.(s)
