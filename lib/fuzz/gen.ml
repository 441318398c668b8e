type profile = Sound | Hostile

let profile_name = function Sound -> "sound" | Hostile -> "hostile"

let topology rng : Cgraph.Topology.spec =
  match Sim.Rng.int rng 11 with
  | 0 -> Cgraph.Topology.Ring (4 + Sim.Rng.int rng 7)
  | 1 -> Cgraph.Topology.Path (3 + Sim.Rng.int rng 6)
  | 2 -> Cgraph.Topology.Clique (3 + Sim.Rng.int rng 4)
  | 3 -> Cgraph.Topology.Star (4 + Sim.Rng.int rng 5)
  | 4 -> Cgraph.Topology.Grid (2 + Sim.Rng.int rng 2, 2 + Sim.Rng.int rng 3)
  | 5 -> Cgraph.Topology.Torus (3, 3 + Sim.Rng.int rng 2)
  | 6 -> Cgraph.Topology.Binary_tree (4 + Sim.Rng.int rng 7)
  | 7 -> Cgraph.Topology.Hypercube (2 + Sim.Rng.int rng 2)
  | 8 -> Cgraph.Topology.Wheel (5 + Sim.Rng.int rng 4)
  | 9 -> Cgraph.Topology.Bipartite (2 + Sim.Rng.int rng 2, 2 + Sim.Rng.int rng 2)
  | _ ->
      (* Probabilities in 0.15 .. 0.45 step 0.05: short decimal strings
         that survive the reproducer's text round-trip exactly. *)
      Cgraph.Topology.Random_gnp
        (6 + Sim.Rng.int rng 7, 0.15 +. (0.05 *. float_of_int (Sim.Rng.int rng 7)),
         Sim.Rng.bits64 rng)

let delay rng ~horizon : Net.Delay.t =
  match Sim.Rng.int rng 4 with
  | 0 -> Net.Delay.Fixed (1 + Sim.Rng.int rng 5)
  | 1 -> Net.Delay.Uniform (1, 4 + Sim.Rng.int rng 16)
  | 2 ->
      (* Integer-valued means round-trip exactly through the codec. *)
      Net.Delay.Exponential (float_of_int (2 + Sim.Rng.int rng 7), 20 + Sim.Rng.int rng 20)
  | _ ->
      Net.Delay.Partial_synchrony
        {
          gst = horizon / 4;
          pre = (1, 30 + Sim.Rng.int rng 30);
          post = (1, 4 + Sim.Rng.int rng 5);
        }

let workload rng : Harness.Scenario.workload =
  match Sim.Rng.int rng 4 with
  | 0 -> Harness.Scenario.default_workload
  | 1 -> Harness.Scenario.contended_workload
  | 2 -> { think = (0, 120); eat = (5, 35) }
  | _ -> { think = (10, 10 + Sim.Rng.int_in rng 50 250); eat = (5, 5 + Sim.Rng.int_in rng 10 40) }

(* Detectors inside the eventually-perfect class (plus the trivially
   sound Never when nothing crashes): the sound profile's pool. *)
let sound_detector rng ~horizon ~crashes : Harness.Scenario.detector_kind =
  match Sim.Rng.int rng (if crashes = 0 then 4 else 3) with
  | 0 ->
      Harness.Scenario.Oracle
        {
          detection_delay = 20 + Sim.Rng.int rng 60;
          fp_per_edge = Sim.Rng.int rng 3;
          fp_window = horizon / 3;
          fp_max_len = 50 + Sim.Rng.int rng 150;
        }
  | 1 ->
      Harness.Scenario.Heartbeat
        {
          period = 10 + Sim.Rng.int rng 20;
          initial_timeout = 20 + Sim.Rng.int rng 30;
          bump = 10 + Sim.Rng.int rng 20;
        }
  | 2 -> Harness.Scenario.Perfect
  | _ -> Harness.Scenario.Never

let hostile_detector rng ~horizon ~crashes : Harness.Scenario.detector_kind =
  match Sim.Rng.int rng 3 with
  | 0 -> Harness.Scenario.Never
  | 1 ->
      Harness.Scenario.Unreliable
        { period = 800 + (100 * Sim.Rng.int rng 8); duration = 80 + Sim.Rng.int rng 80 }
  | _ -> sound_detector rng ~horizon ~crashes

let scenario ~profile ~campaign_seed ~case : Harness.Scenario.t =
  let rng =
    Sim.Rng.split_named (Sim.Rng.create campaign_seed) (Printf.sprintf "case-%d" case)
  in
  let horizon = 8_000 + (1_000 * Sim.Rng.int rng 9) in
  let topology = topology rng in
  let n = Cgraph.Graph.n (Cgraph.Topology.build topology) in
  let crash_count =
    let cap = max 0 (min 2 (n - 2)) in
    Sim.Rng.int rng (cap + 1)
  in
  let crashes =
    if crash_count = 0 then Harness.Scenario.No_crashes
    else
      Harness.Scenario.Random_crashes
        { count = crash_count; from_t = horizon / 8; to_t = horizon / 2 }
  in
  let detector =
    match profile with
    | Sound -> sound_detector rng ~horizon ~crashes:crash_count
    | Hostile -> hostile_detector rng ~horizon ~crashes:crash_count
  in
  let algo =
    match profile with
    | Sound -> Harness.Scenario.Song_pike
    | Hostile -> (
        match Sim.Rng.int rng 5 with
        | 0 -> Harness.Scenario.Fork_only
        | 1 -> Harness.Scenario.Chandy_misra
        | 2 -> Harness.Scenario.Ordered
        | _ -> Harness.Scenario.Song_pike)
  in
  let acks_per_session = match Sim.Rng.int rng 5 with 0 -> 2 | 1 -> 3 | _ -> 1 in
  {
    Harness.Scenario.name = Printf.sprintf "fuzz-%Ld-%d" campaign_seed case;
    topology;
    seed = Sim.Rng.bits64 rng;
    delay = delay rng ~horizon;
    detector;
    algo;
    workload = workload rng;
    crashes;
    horizon;
    check_every = Some (match Sim.Rng.int rng 3 with 0 -> 97 | 1 -> 199 | _ -> 499);
    acks_per_session;
  }
