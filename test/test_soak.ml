(* Long-horizon stress runs ("soak" tests): large random graphs, many
   crashes, heartbeat detector, invariants checked continuously. These
   are the closest the suite comes to the paper's "every run" claims.

   All assertions go through the shared Fuzz.Property oracles — the same
   predicates backing the fuzzer and `daemon_sim fuzz` — so the soak suite,
   the campaigns and the negative self-tests cannot drift apart. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Run the scenario and assert every oracle whose hypotheses it
   satisfies. *)
let assert_clean label (s : Harness.Scenario.t) =
  let r = Harness.World.run s in
  (match Fuzz.Property.failures (Fuzz.Property.applicable s) r with
  | [] -> ()
  | fails ->
      Alcotest.failf "%s: %s" label
        (String.concat "; " (List.map (fun (n, m) -> n ^ ": " ^ m) fails)));
  r

let soak ~seed ~algo ~detector ~topology ?(crashes = 6) ?(horizon = 150_000) () :
    Harness.Scenario.t =
  {
    name = "soak";
    topology;
    seed;
    algo;
    detector;
    delay = Net.Delay.Partial_synchrony { gst = 30_000; pre = (1, 80); post = (1, 8) };
    workload = { think = (0, 120); eat = (5, 35) };
    crashes = Harness.Scenario.Random_crashes { count = crashes; from_t = 2_000; to_t = 80_000 };
    horizon;
    check_every = Some 499;
    acks_per_session = 1;
  }

let heartbeat = Harness.Scenario.default_heartbeat

let soak_song_pike_heartbeat () =
  let s = soak ~seed:5150L ~algo:Harness.Scenario.Song_pike ~detector:heartbeat
      ~topology:(Cgraph.Topology.Random_gnp (32, 0.15, 51L)) () in
  let r = assert_clean "gnp-32 + heartbeat" s in
  check bool "substantial run" true (r.total_eats > 5_000)

let soak_song_pike_torus () =
  let s = soak ~seed:99L ~algo:Harness.Scenario.Song_pike ~detector:heartbeat
      ~topology:(Cgraph.Topology.Torus (5, 5)) () in
  let r = assert_clean "torus-5x5 + heartbeat" s in
  check int "safe after the settle cut" 0 (Harness.World.late_violations r)

let soak_quiescence_everywhere () =
  let s = soak ~seed:7L ~algo:Harness.Scenario.Song_pike
      ~detector:(Harness.Scenario.Oracle
                   { detection_delay = 60; fp_per_edge = 1; fp_window = 10_000; fp_max_len = 150 })
      ~topology:(Cgraph.Topology.Random_gnp (24, 0.2, 13L)) () in
  let r = assert_clean "gnp-24 + noisy oracle" s in
  check bool "crashes actually realised" true (r.crashed <> [])

let soak_fairness_holds_at_scale () =
  let s = soak ~seed:12L ~algo:Harness.Scenario.Song_pike
      ~detector:(Harness.Scenario.Oracle
                   { detection_delay = 60; fp_per_edge = 2; fp_window = 12_000; fp_max_len = 200 })
      ~topology:(Cgraph.Topology.Clique 8) ~crashes:2 () in
  let r = assert_clean "clique-8 + noisy oracle" s in
  check bool "2-bounded after the settle cut at scale" true
    (Harness.World.late_overtakes r <= Harness.World.overtake_bound r)

(* ------------------- cross-product soak matrix --------------------- *)

(* Every (algorithm, detector, topology, crash plan) combination at a
   medium horizon, each cell checked against exactly the oracles whose
   hypotheses it satisfies: Algorithm 1 cells assert the full theorem
   set, baseline cells assert what a baseline still promises (lemmas;
   wait-freedom only when crash-free). One seed per cell, derived from
   its coordinates, so a matrix failure pins the cell. *)

let matrix_algos =
  [
    ("song-pike", Harness.Scenario.Song_pike);
    ("chandy-misra", Harness.Scenario.Chandy_misra);
    ("ordered", Harness.Scenario.Ordered);
  ]

let matrix_detectors =
  [
    ("heartbeat", heartbeat);
    ( "oracle-quiet",
      Harness.Scenario.quiet_oracle );
    ( "oracle-noisy",
      Harness.Scenario.Oracle
        { detection_delay = 60; fp_per_edge = 2; fp_window = 8_000; fp_max_len = 150 } );
    ("perfect", Harness.Scenario.Perfect);
  ]

let matrix_topologies =
  [
    ("ring-12", Cgraph.Topology.Ring 12);
    ("gnp-16", Cgraph.Topology.Random_gnp (16, 0.2, 3L));
    ("torus-4x4", Cgraph.Topology.Torus (4, 4));
  ]

let matrix_crashes =
  [
    ("crash-free", Harness.Scenario.No_crashes);
    ("2-crashes", Harness.Scenario.Random_crashes { count = 2; from_t = 2_000; to_t = 12_000 });
  ]

let matrix_cell ~ai ~di ~ti ~ci (aname, algo) (dname, detector) (tname, topology)
    (cname, crashes) =
  let label = Printf.sprintf "%s/%s/%s/%s" aname dname tname cname in
  let s : Harness.Scenario.t =
    {
      name = "soak-matrix";
      topology;
      seed = Int64.of_int (1 + ai + (7 * di) + (41 * ti) + (163 * ci));
      algo;
      detector;
      delay = Net.Delay.Partial_synchrony { gst = 6_000; pre = (1, 50); post = (1, 8) };
      workload = { think = (0, 120); eat = (5, 35) };
      crashes;
      horizon = 30_000;
      check_every = Some 499;
      acks_per_session = 1;
    }
  in
  ignore (assert_clean label s)

let soak_matrix () =
  let checked = ref 0 in
  List.iteri
    (fun ai a ->
      List.iteri
        (fun di d ->
          List.iteri
            (fun ti t ->
              List.iteri
                (fun ci c ->
                  matrix_cell ~ai ~di ~ti ~ci a d t c;
                  incr checked)
                matrix_crashes)
            matrix_topologies)
        matrix_detectors)
    matrix_algos;
  check int "all cells ran" 72 !checked

let suite =
  [
    Alcotest.test_case "soak: gnp-32 + heartbeat, 150k ticks" `Slow soak_song_pike_heartbeat;
    Alcotest.test_case "soak: torus-5x5 + heartbeat" `Slow soak_song_pike_torus;
    Alcotest.test_case "soak: quiescence for every victim" `Slow soak_quiescence_everywhere;
    Alcotest.test_case "soak: fairness bound at scale" `Slow soak_fairness_holds_at_scale;
    Alcotest.test_case "soak: algo x detector x topology x crash matrix" `Slow soak_matrix;
  ]
