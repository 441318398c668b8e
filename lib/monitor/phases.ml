type t = {
  engine : Sim.Engine.t;
  hungry_at : (int, Sim.Time.t) Hashtbl.t;
  entered_at : (int, Sim.Time.t) Hashtbl.t;
  mutable doorway : int list;
  mutable fork : int list;
  h_doorway : Obs.Metrics.histogram;
  h_fork : Obs.Metrics.histogram;
}

let attach ?metrics engine (instance : Dining.Instance.t) =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      engine;
      hungry_at = Hashtbl.create 16;
      entered_at = Hashtbl.create 16;
      doorway = [];
      fork = [];
      h_doorway = Obs.Metrics.histogram metrics "daemon.doorway_wait";
      h_fork = Obs.Metrics.histogram metrics "daemon.fork_wait";
    }
  in
  Obs.Recorder.on_light (Sim.Engine.recorder engine) (fun r ->
      match r.kind with
      | Obs.Record.Mark { tag = "enter_doorway"; subject; _ } -> (
          match Hashtbl.find_opt t.hungry_at subject with
          | Some started ->
              Hashtbl.replace t.entered_at subject r.time;
              t.doorway <- (r.time - started) :: t.doorway;
              Obs.Metrics.observe t.h_doorway (r.time - started)
          | None -> ())
      | _ -> ());
  instance.add_listener (fun pid phase ->
      let now = Sim.Engine.now engine in
      match phase with
      | Dining.Types.Hungry -> Hashtbl.replace t.hungry_at pid now
      | Dining.Types.Eating -> (
          Hashtbl.remove t.hungry_at pid;
          match Hashtbl.find_opt t.entered_at pid with
          | Some entered ->
              Hashtbl.remove t.entered_at pid;
              t.fork <- (now - entered) :: t.fork;
              Obs.Metrics.observe t.h_fork (now - entered)
          | None -> ())
      | Dining.Types.Thinking ->
          Hashtbl.remove t.hungry_at pid;
          Hashtbl.remove t.entered_at pid);
  t

let doorway_waits t = List.rev t.doorway
let fork_waits t = List.rev t.fork
let doorway_summary t = Stats.Summary.of_ints t.doorway
let fork_summary t = Stats.Summary.of_ints t.fork
