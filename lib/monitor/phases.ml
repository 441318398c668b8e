type t = {
  engine : Sim.Engine.t;
  hungry_at : Sim.Time.t array; (* pid -> start of its hungry session, -1 = none *)
  entered_at : Sim.Time.t array; (* pid -> doorway entry in that session, -1 = none *)
  doorway : Stats.Multiset.t;
  fork : Stats.Multiset.t;
  h_doorway : Obs.Metrics.histogram;
  h_fork : Obs.Metrics.histogram;
}

let[@lint.hot] on_mark t (r : Obs.Record.t) =
  match r.kind with
  | Obs.Record.Mark { tag = "enter_doorway"; subject; _ }
    when subject >= 0 && subject < Array.length t.hungry_at ->
      let started = t.hungry_at.(subject) in
      if started >= 0 then begin
        let wait = r.time - started in
        t.entered_at.(subject) <- r.time;
        Stats.Multiset.add t.doorway wait;
        Obs.Metrics.observe t.h_doorway wait
      end
  | _ -> ()

let[@lint.hot] on_phase t pid phase =
  match phase with
  | Dining.Types.Hungry -> t.hungry_at.(pid) <- Sim.Engine.now t.engine
  | Dining.Types.Eating ->
      t.hungry_at.(pid) <- -1;
      let entered = t.entered_at.(pid) in
      if entered >= 0 then begin
        let wait = Sim.Engine.now t.engine - entered in
        t.entered_at.(pid) <- -1;
        Stats.Multiset.add t.fork wait;
        Obs.Metrics.observe t.h_fork wait
      end
  | Dining.Types.Thinking ->
      t.hungry_at.(pid) <- -1;
      t.entered_at.(pid) <- -1

let attach ?metrics ~n engine (instance : Dining.Instance.t) =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      engine;
      hungry_at = Array.make n (-1);
      entered_at = Array.make n (-1);
      doorway = Stats.Multiset.create ();
      fork = Stats.Multiset.create ();
      h_doorway = Obs.Metrics.histogram metrics "daemon.doorway_wait";
      h_fork = Obs.Metrics.histogram metrics "daemon.fork_wait";
    }
  in
  Obs.Recorder.on_light (Sim.Engine.recorder engine) (on_mark t);
  instance.add_listener (on_phase t);
  t

let doorway_waits t = Stats.Multiset.to_list t.doorway
let fork_waits t = Stats.Multiset.to_list t.fork
let doorway_summary t = Stats.Multiset.summary t.doorway
let fork_summary t = Stats.Multiset.summary t.fork
