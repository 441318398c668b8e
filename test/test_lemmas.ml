(* The paper's lemmas as dedicated, adversarially exercised test cases.

   The executable versions of Lemmas 1.1, 1.2 and 2.2 live inside
   Dining.Algorithm (raised from message handlers and from
   check_invariants); these tests arrange the conditions under which each
   lemma is under the most stress and assert that no violation is ever
   reported. The model checker covers the same lemmas exhaustively on
   small instances (test_mcheck); here the simulator covers large random
   instances. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let run_checked ?(topology = Cgraph.Topology.Clique 6) ?(seed = 1L) ?(horizon = 30_000)
    ?(delay = Net.Delay.Uniform (1, 40)) ?(crashes = Harness.Scenario.No_crashes)
    ?(fp_per_edge = 3) ?recorder () =
  Harness.World.run ?recorder
    {
      Harness.Scenario.default with
      name = "lemmas";
      topology;
      seed;
      delay;
      detector =
        Harness.Scenario.Oracle
          { detection_delay = 40; fp_per_edge; fp_window = horizon / 2; fp_max_len = 300 };
      workload = Harness.Scenario.contended_workload;
      crashes;
      horizon;
      (* Check the executable lemmas at (nearly) every instant. *)
      check_every = Some 3;
    }

(* Lemma 1.1: a fork-request recipient holds the requested fork, and a
   fork recipient does not hold the token. Stressed by huge delay jitter
   (up to 40x) so that reorderings across different channels are extreme;
   only per-channel FIFO protects the lemma, exactly as in the paper's
   proof. A violation would abort delivery with Invariant_violation. *)
let lemma_1_1_under_jitter () =
  let r = run_checked ~delay:(Net.Delay.Uniform (1, 40)) () in
  check bool "no violation despite 40x delay jitter" true (r.invariant_error = None);
  check bool "the run was heavy" true (r.total_eats > 500)

(* Lemma 1.2: fork uniqueness — extended with crash absorption so the
   conservation law stays checkable when holders die. Stressed by
   crashing half the clique, some mid-eating. *)
let lemma_1_2_with_crashes () =
  let r =
    run_checked
      ~crashes:(Harness.Scenario.Random_crashes { count = 3; from_t = 1_000; to_t = 15_000 })
      ~seed:7L ()
  in
  check bool "fork/token conservation held at every check" true (r.invariant_error = None)

(* Lemma 2.2: at most one pending ping per ordered pair. Its visible
   consequence (with the paper's Section 7 argument) is that at most two
   ping and two ack messages can ever be in transit on an edge. *)
let lemma_2_2_channel_consequence () =
  let recorder = Obs.Recorder.create () in
  let by_kind = Net.Kind_watermarks.attach recorder in
  let r = run_checked ~recorder ~seed:3L () in
  let kind_wm kind =
    Option.value (List.assoc_opt kind (Net.Kind_watermarks.max_by_kind by_kind)) ~default:0
  in
  check bool "ping watermark <= 2" true (kind_wm "ping" <= 2);
  check bool "ack watermark <= 2" true (kind_wm "ack" <= 2);
  check bool "fork watermark <= 1" true (kind_wm "fork" <= 1);
  check bool "request watermark <= 1" true (kind_wm "request" <= 1);
  check bool "pipeline invariant held" true (r.invariant_error = None)

(* All lemmas together, randomized: any topology, any seed, crashes and
   scripted oracle lies everywhere. ~40 full runs with near-continuous
   invariant checking. *)
let all_lemmas_random =
  QCheck.Test.make ~name:"lemmas: executable invariants on random runs" ~count:25
    QCheck.(triple (int_bound 100_000) (int_bound 4) (int_range 0 3))
    (fun (seed, topo_idx, crash_count) ->
      let topology =
        match topo_idx with
        | 0 -> Cgraph.Topology.Ring 9
        | 1 -> Cgraph.Topology.Clique 5
        | 2 -> Cgraph.Topology.Wheel 7
        | 3 -> Cgraph.Topology.Bipartite (3, 4)
        | _ -> Cgraph.Topology.Random_gnp (12, 0.3, Int64.of_int (seed + 17))
      in
      let r =
        run_checked ~topology
          ~seed:(Int64.of_int seed)
          ~horizon:12_000
          ~crashes:
            (if crash_count = 0 then Harness.Scenario.No_crashes
             else
               Harness.Scenario.Random_crashes
                 { count = crash_count; from_t = 500; to_t = 6_000 })
          ()
      in
      r.invariant_error = None)

(* Theorem 1's mechanism, isolated: violations can only involve a pair in
   which at least one side currently suspects the other (suspicion is the
   only way to eat without the shared fork). *)
let violations_need_suspicion () =
  let r =
    run_checked ~seed:11L
      ~crashes:(Harness.Scenario.Crash_at [ (2, 9_000) ])
      ~fp_per_edge:4 ()
  in
  check bool "run produced violations to analyse" true (Monitor.Exclusion.count r.exclusion > 0);
  List.iter
    (fun (v : Monitor.Exclusion.violation) ->
      check bool "violation precedes convergence" true (v.time < r.convergence))
    (Monitor.Exclusion.violations r.exclusion);
  check int "and none after the settle cut" 0 (Harness.World.late_violations r)

let suite =
  [
    Alcotest.test_case "Lemma 1.1 under extreme delay jitter" `Quick lemma_1_1_under_jitter;
    Alcotest.test_case "Lemma 1.2 with crash absorption" `Quick lemma_1_2_with_crashes;
    Alcotest.test_case "Lemma 2.2 channel consequences" `Quick lemma_2_2_channel_consequence;
    Seeded.to_alcotest all_lemmas_random;
    Alcotest.test_case "Theorem 1 mechanism: mistakes end at convergence" `Quick
      violations_need_suspicion;
  ]
