(* The paper's theorems as properties over whole scenarios. Each space
   maps a seed and a case index to a scenario; a case holds when the
   named [Fuzz.Property] oracles pass on its report, so the test suite,
   the seed scan, the soak matrix and the fuzzer share one verdict per
   theorem. *)

let noisy_oracle : Harness.Scenario.detector_kind =
  Harness.Scenario.Oracle { detection_delay = 50; fp_per_edge = 2; fp_window = 6_000; fp_max_len = 200 }

let scenario ?(topology = Cgraph.Topology.Ring 8) ?(seed = 1L)
    ?(detector = Harness.Scenario.quiet_oracle)
    ?(algo = Harness.Scenario.Song_pike) ?(crashes = Harness.Scenario.No_crashes)
    ?(workload = Harness.Scenario.default_workload) ?(horizon = 40_000) () : Harness.Scenario.t =
  {
    Harness.Scenario.default with
    name = "test";
    topology;
    seed;
    detector;
    algo;
    crashes;
    workload;
    horizon;
    check_every = Some 101;
  }

type space = {
  name : string;
  oracles : Fuzz.Property.t list;
  per_seed : int;  (** cases per seed *)
  case : seed:int -> int -> Harness.Scenario.t;  (** case [0 .. per_seed - 1] of a seed *)
}

let failures space s = Fuzz.Property.failures space.oracles (Harness.World.run s)

let wait_freedom =
  {
    name = "harness: wait-freedom on random scenarios (Theorem 2)";
    oracles = [ Fuzz.Property.wait_freedom; Fuzz.Property.lemmas ];
    per_seed = 15;
    case =
      (fun ~seed i ->
        let crash_count = i / 3 in
        let topology =
          match i mod 3 with
          | 0 -> Cgraph.Topology.Ring 10
          | 1 -> Cgraph.Topology.Clique 6
          | _ -> Cgraph.Topology.Random_gnp (12, 0.3, Int64.of_int (seed + 1))
        in
        scenario ~topology ~seed:(Int64.of_int seed) ~detector:noisy_oracle
          ~crashes:
            (if crash_count = 0 then Harness.Scenario.No_crashes
             else Harness.Scenario.Random_crashes { count = crash_count; from_t = 1_000; to_t = 15_000 })
          ~horizon:50_000 ());
  }

let exclusion_topologies = [| Cgraph.Topology.Ring 10; Cgraph.Topology.Clique 6; Cgraph.Topology.Star 8 |]

let exclusion_run ~seed topology =
  scenario ~topology ~seed:(Int64.of_int seed) ~detector:noisy_oracle
    ~crashes:(Harness.Scenario.Random_crashes { count = 1; from_t = 1_000; to_t = 10_000 })
    ~workload:{ think = (0, 100); eat = (5, 30) }
    ~horizon:40_000 ()

let exclusion =
  {
    name = "harness: no violations after convergence (Theorem 1)";
    oracles = [ Fuzz.Property.eventual_weak_exclusion ];
    per_seed = Array.length exclusion_topologies;
    case = (fun ~seed i -> exclusion_run ~seed exclusion_topologies.(i));
  }

let bounded_waiting =
  {
    name = "harness: 2-bounded waiting after convergence (Theorem 3)";
    oracles = [ Fuzz.Property.bounded_waiting ];
    per_seed = 1;
    case =
      (fun ~seed _ ->
        scenario ~topology:(Cgraph.Topology.Clique 5) ~seed:(Int64.of_int seed)
          ~detector:noisy_oracle ~workload:Harness.Scenario.contended_workload ~horizon:40_000 ());
  }

let channel_capacity =
  {
    name = "harness: <= 4 messages per edge (Section 7)";
    oracles = [ Fuzz.Property.channel_bound ];
    per_seed = 3;
    case =
      (fun ~seed i ->
        let topology =
          match i with
          | 0 -> Cgraph.Topology.Torus (3, 3)
          | 1 -> Cgraph.Topology.Clique 6
          | _ -> Cgraph.Topology.Binary_tree 9
        in
        scenario ~topology ~seed:(Int64.of_int seed) ~detector:noisy_oracle
          ~workload:Harness.Scenario.contended_workload
          ~crashes:(Harness.Scenario.Random_crashes { count = 1; from_t = 500; to_t = 5_000 })
          ~horizon:20_000 ());
  }

let all =
  [
    ("wait-freedom", wait_freedom);
    ("exclusion", exclusion);
    ("bounded-waiting", bounded_waiting);
    ("channel-bound", channel_capacity);
  ]
