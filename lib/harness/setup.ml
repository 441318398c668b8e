type detector_state =
  [ `Static of Sim.Time.t | `Oracle of Fd.Oracle.t | `Heartbeat of Fd.Heartbeat.t ]

type parts = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  rng : Sim.Rng.t;
  crashed : (int * Sim.Time.t) list;
  detector : Fd.Detector.t;
  detector_state : detector_state;
  instance : Dining.Instance.t;
  link_stats : Net.Link_stats.t;
  song_pike : Dining.Algorithm.t option;
}

let realise_crashes (s : Scenario.t) rng n =
  match s.crashes with
  | Scenario.No_crashes -> []
  | Scenario.Crash_at list -> List.sort (fun (_, a) (_, b) -> compare a b) list
  | Scenario.Random_crashes { count; from_t; to_t } ->
      if count > n then invalid_arg "Setup: more crashes than processes";
      if count > 0 && to_t <= from_t then invalid_arg "Setup: empty crash window";
      let pids = Array.init n Fun.id in
      Sim.Rng.shuffle rng pids;
      List.init count (fun k -> (pids.(k), Sim.Rng.int_in rng from_t (to_t - 1)))
      |> List.sort (fun (_, a) (_, b) -> compare a b)

let make_detector (s : Scenario.t) ~engine ~faults ~graph ~rng ?metrics () =
  match s.detector with
  | Scenario.Never -> (Fd.Never.create (), (`Static Sim.Time.zero : detector_state))
  | Scenario.Perfect -> (Fd.Perfect.create engine faults graph, `Static Sim.Time.zero)
  | Scenario.Oracle { detection_delay; fp_per_edge; fp_window; fp_max_len } ->
      let oracle, detector =
        if fp_per_edge = 0 then Fd.Oracle.create engine faults graph ~detection_delay ()
        else
          Fd.Oracle.create_random engine faults graph ~detection_delay
            (Sim.Rng.split_named rng "oracle-fp")
            ~before:fp_window ~per_edge:fp_per_edge ~max_len:fp_max_len ()
      in
      (detector, `Oracle oracle)
  | Scenario.Heartbeat { period; initial_timeout; bump } ->
      let hb, detector =
        Fd.Heartbeat.create ~engine ~faults ~graph ~delay:s.delay
          ~rng:(Sim.Rng.split_named rng "heartbeat")
          ~period ~initial_timeout ~bump ?metrics ()
      in
      (detector, `Heartbeat hb)
  | Scenario.Unreliable { period; duration } ->
      (* Never converges: report convergence at infinity. *)
      ( Fd.Unreliable.create engine faults graph
          (Sim.Rng.split_named rng "unreliable")
          ~period ~duration ~horizon:s.horizon (),
        `Static Sim.Time.infinity )

let make_instance (s : Scenario.t) ~engine ~faults ~graph ~detector ~rng ?metrics () =
  let net_rng = Sim.Rng.split_named rng "dining-net" in
  let baseline rule =
    let algo =
      Baselines.Forks.create ~rule ~engine ~faults ~graph ~delay:s.delay ~rng:net_rng ~detector
        ?metrics ()
    in
    (Baselines.Forks.instance algo, Baselines.Forks.network_stats algo, None)
  in
  match s.algo with
  | Scenario.Song_pike ->
      let algo =
        Dining.Algorithm.create ~engine ~faults ~graph ~delay:s.delay ~rng:net_rng ~detector
          ?metrics ~acks_per_session:s.acks_per_session ()
      in
      (Dining.Algorithm.instance algo, Dining.Algorithm.network_stats algo, Some algo)
  | Scenario.Fork_only -> baseline Baselines.Forks.Fork_only
  | Scenario.Chandy_misra -> baseline Baselines.Forks.Chandy_misra
  | Scenario.Ordered -> baseline Baselines.Forks.Ordered

let build ?recorder ?metrics (s : Scenario.t) =
  let graph = Cgraph.Topology.build s.topology in
  let n = Cgraph.Graph.n graph in
  let engine = Sim.Engine.create ?recorder () in
  let faults = Net.Faults.create engine ~n in
  let rng = Sim.Rng.create s.seed in
  let crashed = realise_crashes s (Sim.Rng.split_named rng "crashes") n in
  let detector, detector_state = make_detector s ~engine ~faults ~graph ~rng ?metrics () in
  let instance, link_stats, song_pike =
    make_instance s ~engine ~faults ~graph ~detector ~rng ?metrics ()
  in
  List.iter (fun (pid, at) -> Net.Faults.schedule_crash faults ~pid ~at) crashed;
  {
    engine;
    faults;
    graph;
    rng;
    crashed;
    detector;
    detector_state;
    instance;
    link_stats;
    song_pike;
  }

let convergence parts =
  match parts.detector_state with
  | `Static t -> (t, 0)
  | `Oracle oracle -> (Fd.Oracle.convergence_time oracle, 0)
  | `Heartbeat hb ->
      let conv =
        match Fd.Heartbeat.last_mistake hb with
        | None -> Sim.Time.zero
        | Some t -> Sim.Time.add t 1
      in
      (conv, Fd.Heartbeat.mistakes hb)
