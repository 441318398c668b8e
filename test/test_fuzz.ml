(* The fuzzing subsystem, tested from both sides: negative self-tests
   prove each oracle *fires* on a scenario engineered to violate it (an
   oracle that always passes would silently void the whole campaign),
   and pipeline tests prove generation, shrinking and replay are
   deterministic and lossless. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let fires name (p : Fuzz.Property.t) r =
  check bool (Printf.sprintf "%s fires on %s" p.name name) true (p.check r <> None)

let holds name (p : Fuzz.Property.t) r =
  check bool
    (Printf.sprintf "%s holds on %s (%s)" p.name name
       (Option.value (p.check r) ~default:""))
    true (p.check r = None)

let quiet_oracle : Harness.Scenario.detector_kind =
  Harness.Scenario.Oracle { detection_delay = 50; fp_per_edge = 0; fp_window = 0; fp_max_len = 1 }

let scenario ?(topology = Cgraph.Topology.Ring 8) ?(seed = 1L) ?(detector = quiet_oracle)
    ?(algo = Harness.Scenario.Song_pike) ?(crashes = Harness.Scenario.No_crashes)
    ?(workload = Harness.Scenario.default_workload) ?(horizon = 40_000) () : Harness.Scenario.t =
  {
    Harness.Scenario.default with
    name = "fuzz-test";
    topology;
    seed;
    detector;
    algo;
    crashes;
    workload;
    horizon;
    check_every = Some 101;
  }

(* ---------------------- negative self-tests ------------------------ *)

(* An unreliable detector keeps committing false suspicions, so
   exclusion violations never cease — the tail-window cutoff must catch
   them (same scenario as the harness suite's accuracy contrast). *)
let exclusion_oracle_fires () =
  let s =
    scenario
      ~topology:(Cgraph.Topology.Clique 5)
      ~detector:(Harness.Scenario.Unreliable { period = 1_000; duration = 120 })
      ~workload:{ think = (0, 60); eat = (10, 30) }
      ~crashes:(Harness.Scenario.Crash_at [ (1, 5_000) ])
      ()
  in
  check bool "out of hypothesis" false (Fuzz.Property.eventual_weak_exclusion.applicable s);
  fires "unreliable detector" Fuzz.Property.eventual_weak_exclusion (Harness.World.run s)

(* With the Never detector (the Choy-Singh model) a crash wedges the
   victim's neighborhood: wait-freedom breaks. *)
let wait_freedom_oracle_fires () =
  let s =
    scenario ~detector:Harness.Scenario.Never
      ~crashes:(Harness.Scenario.Crash_at [ (2, 3_000) ])
      ()
  in
  fires "never + crash" Fuzz.Property.wait_freedom (Harness.World.run s)

(* No simulated daemon keeps sending to a dead process (even the
   baselines request forks at most once per session), so prove the
   quiescence oracle reads real per-victim traffic by grafting
   synthesized link stats — one send to the victim — onto a real
   report. The grace bound is strict: a send at exactly crash + grace
   is allowed, one tick later is not. *)
let quiescence_oracle_fires () =
  let crash = 3_000 in
  let r =
    Harness.World.run
      (scenario ~crashes:(Harness.Scenario.Crash_at [ (2, crash) ]) ~horizon:20_000 ())
  in
  holds "a sound run" Fuzz.Property.quiescence r;
  let sent_to_victim_at at =
    let graph = Cgraph.Topology.build (Cgraph.Topology.Ring 8) in
    let noisy = Net.Link_stats.create ~engine:(Sim.Engine.create ()) ~graph () in
    ignore (Net.Link_stats.record_send noisy ~slot:(Cgraph.Graph.dir_index graph 1 2) ~at ~deliver_at:at);
    { r with link_stats = noisy }
  in
  let edge = crash + Fuzz.Property.quiescence_grace in
  fires "post-grace send to a victim" Fuzz.Property.quiescence (sent_to_victim_at 15_000);
  holds "a send at exactly crash + grace" Fuzz.Property.quiescence (sent_to_victim_at edge);
  check (Alcotest.option Alcotest.string) "a send one tick later fires"
    (Some
       (Printf.sprintf "messages still addressed to victims %d ticks after crash: p2 (last send at t=%d)"
          Fuzz.Property.quiescence_grace (edge + 1)))
    (Fuzz.Property.quiescence.check (sent_to_victim_at (edge + 1)))

(* The fork-only baseline has no doorway, so a hungry process can be
   overtaken unboundedly under contention (experiment E3's claim). *)
let bounded_waiting_oracle_fires () =
  let s =
    scenario ~algo:Harness.Scenario.Fork_only
      ~topology:(Cgraph.Topology.Clique 6)
      ~workload:Harness.Scenario.contended_workload
      ~crashes:(Harness.Scenario.Random_crashes { count = 1; from_t = 5_000; to_t = 15_000 })
      ~seed:37L ~horizon:60_000 ()
  in
  fires "fork-only under contention" Fuzz.Property.bounded_waiting (Harness.World.run s)

(* No real scenario violates the channel bound (that is Section 7's
   point), so prove the oracle reads real traffic by tightening the
   bound to an impossible 0 on a busy run. *)
let channel_bound_oracle_reads_traffic () =
  let r = Harness.World.run (scenario ~horizon:10_000 ()) in
  holds "a sound run" Fuzz.Property.channel_bound r;
  fires "bound 0" (Fuzz.Property.channel_bound_with ~bound:0) r

(* Same for the lemma watcher: synthesize a report carrying an
   invariant error. *)
let lemmas_oracle_fires () =
  let r = Harness.World.run (scenario ~horizon:5_000 ()) in
  holds "a sound run" Fuzz.Property.lemmas r;
  fires "synthetic error" Fuzz.Property.lemmas
    { r with invariant_error = Some "synthetic: lemma 1.1" }

(* Positive control: a fully in-hypothesis scenario passes every
   applicable oracle. *)
let oracles_hold_in_hypothesis () =
  let s =
    scenario
      ~detector:(Harness.Scenario.Heartbeat { period = 20; initial_timeout = 30; bump = 25 })
      ~crashes:(Harness.Scenario.Crash_at [ (3, 8_000) ])
      ()
  in
  let props = Fuzz.Property.applicable s in
  check bool "several oracles apply" true (List.length props >= 4);
  let r = Harness.World.run s in
  List.iter (fun p -> holds "heartbeat + crash" p r) props

(* ----------------------------- gen --------------------------------- *)

let gen_is_deterministic () =
  List.iter
    (fun profile ->
      for case = 0 to 9 do
        let a = Fuzz.Gen.scenario ~profile ~campaign_seed:99L ~case in
        let b = Fuzz.Gen.scenario ~profile ~campaign_seed:99L ~case in
        check bool "same (profile, seed, case), same scenario" true (a = b)
      done)
    [ Fuzz.Gen.Sound; Fuzz.Gen.Hostile ];
  let seeds =
    List.init 20 (fun case -> (Fuzz.Gen.scenario ~profile:Fuzz.Gen.Sound ~campaign_seed:99L ~case).seed)
  in
  check bool "cases draw from independent streams" true
    (List.length (List.sort_uniq compare seeds) = 20)

let gen_sound_stays_in_hypothesis () =
  for case = 0 to 99 do
    let s = Fuzz.Gen.scenario ~profile:Fuzz.Gen.Sound ~campaign_seed:4L ~case in
    check bool "algorithm 1 only" true (s.algo = Harness.Scenario.Song_pike);
    check bool "exclusion hypothesis holds" true
      (Fuzz.Property.eventual_weak_exclusion.applicable s);
    check bool "wait-freedom hypothesis holds" true (Fuzz.Property.wait_freedom.applicable s);
    check bool "bounded horizon" true (s.horizon >= 8_000 && s.horizon <= 16_000)
  done

(* --------------------------- reproducers --------------------------- *)

let codec_roundtrips () =
  List.iter
    (fun profile ->
      for case = 0 to 19 do
        let s = Fuzz.Gen.scenario ~profile ~campaign_seed:123L ~case in
        let jsonl = Fuzz.Repro.to_jsonl ~header:"test" ~property:"exclusion" ~message:"m" s in
        match Fuzz.Repro.of_jsonl jsonl with
        | Error e -> Alcotest.failf "decode failed for case %d: %s" case e
        | Ok (s', prop) ->
            check bool (Printf.sprintf "case %d round-trips" case) true (s' = s);
            check Alcotest.string "property survives" "exclusion" prop
      done)
    [ Fuzz.Gen.Sound; Fuzz.Gen.Hostile ]

let codec_rejects_garbage () =
  (match Fuzz.Repro.of_jsonl "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Fuzz.Repro.of_jsonl "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input accepted"

(* --------------------------- shrinking ----------------------------- *)

(* Known failing scenario: Never + one crash starves the neighborhood.
   The minimizer must keep the failure while shrinking to a bounded
   reproducer, and the reproducer must replay to the same verdict after
   a JSONL round-trip — the full pipeline, end to end. *)
let shrinker_regression () =
  let p = Fuzz.Property.wait_freedom in
  let s0 =
    scenario ~detector:Harness.Scenario.Never
      ~crashes:(Harness.Scenario.Crash_at [ (2, 3_000) ])
      ()
  in
  let still_failing s = p.check (Harness.World.run s) <> None in
  check bool "starting point fails" true (still_failing s0);
  let m = Fuzz.Shrink.minimize ~still_failing s0 in
  check bool "took shrink steps" true (m.steps > 0);
  check bool "attempt count sane" true (m.attempts >= m.steps && m.attempts <= 300);
  check int "one action per step" m.steps (List.length m.actions);
  let size s = Cgraph.Graph.n (Cgraph.Topology.build s.Harness.Scenario.topology) in
  check bool "reproducer is small" true (size m.scenario <= 4);
  check bool "horizon shrank" true (m.scenario.horizon < s0.horizon);
  check bool "still failing" true (still_failing m.scenario);
  (* Export, re-parse, replay: the verdict must reproduce. *)
  let jsonl = Fuzz.Repro.to_jsonl ~property:p.name ~message:"starved" m.scenario in
  match Fuzz.Repro.of_jsonl jsonl with
  | Error e -> Alcotest.failf "reproducer did not parse: %s" e
  | Ok (s, prop) -> (
      check Alcotest.string "property name survives" p.name prop;
      match Fuzz.Repro.replay p s with
      | Fuzz.Repro.Reproduced _ -> ()
      | Fuzz.Repro.Clean _ -> Alcotest.fail "minimized reproducer did not reproduce")

let shrinker_is_deterministic () =
  let p = Fuzz.Property.wait_freedom in
  let s0 =
    scenario ~detector:Harness.Scenario.Never
      ~crashes:(Harness.Scenario.Crash_at [ (2, 3_000) ])
      ()
  in
  let still_failing s = p.check (Harness.World.run s) <> None in
  let a = Fuzz.Shrink.minimize ~still_failing s0 in
  let b = Fuzz.Shrink.minimize ~still_failing s0 in
  check bool "same reproducer" true (a.scenario = b.scenario);
  check bool "same path" true (a.actions = b.actions)

(* --------------------------- campaigns ----------------------------- *)

let campaign_domains_invariant () =
  let run domains =
    Fuzz.Campaign.run ~domains ~profile:Fuzz.Gen.Hostile ~shrink:false ~seed:5L ~cases:30 ()
  in
  check bool "domains:1 = domains:2, bit-identical report" true (run 1 = run 2)

let campaign_sound_is_clean () =
  let r = Fuzz.Campaign.run ~domains:2 ~profile:Fuzz.Gen.Sound ~seed:3L ~cases:60 () in
  check int "no failures inside the hypotheses" 0 (List.length r.failures);
  check bool "every oracle got coverage" true
    (List.for_all (fun (_, n) -> n > 0) r.checked);
  check bool "lemmas checked on every case" true (List.assoc "lemmas" r.checked = 60)

let campaign_hostile_finds_and_shrinks () =
  let r = Fuzz.Campaign.run ~domains:2 ~profile:Fuzz.Gen.Hostile ~seed:5L ~cases:10 () in
  check bool "violations found" true (r.failures <> []);
  let f = List.hd r.failures in
  check bool "first failure was minimized" true (f.shrink_attempts > 0);
  let size s = Cgraph.Graph.n (Cgraph.Topology.build s.Harness.Scenario.topology) in
  check bool "shrunk no larger than original" true (size f.shrunk <= size f.scenario);
  match Fuzz.Property.find f.property with
  | None -> Alcotest.failf "failure names unknown property %s" f.property
  | Some p -> (
      match Fuzz.Repro.replay p f.shrunk with
      | Fuzz.Repro.Reproduced _ -> ()
      | Fuzz.Repro.Clean _ -> Alcotest.fail "campaign reproducer did not reproduce")

let property_registry () =
  check int "six oracles" 6 (List.length Fuzz.Property.all);
  List.iter
    (fun (p : Fuzz.Property.t) ->
      match Fuzz.Property.find p.name with
      | Some p' -> check bool "find is identity on names" true (p'.name = p.name)
      | None -> Alcotest.failf "oracle %s not findable" p.name)
    Fuzz.Property.all;
  check bool "unknown name rejected" true (Fuzz.Property.find "no-such-oracle" = None)

let suite =
  [
    Alcotest.test_case "negative: exclusion oracle fires on unreliable" `Slow
      exclusion_oracle_fires;
    Alcotest.test_case "negative: wait-freedom fires on never + crash" `Slow
      wait_freedom_oracle_fires;
    Alcotest.test_case "negative: quiescence reads per-victim traffic" `Quick
      quiescence_oracle_fires;
    Alcotest.test_case "negative: bounded-waiting fires on fork-only" `Slow
      bounded_waiting_oracle_fires;
    Alcotest.test_case "negative: channel-bound reads real traffic" `Quick
      channel_bound_oracle_reads_traffic;
    Alcotest.test_case "negative: lemma watcher fires" `Quick lemmas_oracle_fires;
    Alcotest.test_case "positive control: oracles hold in hypothesis" `Slow
      oracles_hold_in_hypothesis;
    Alcotest.test_case "gen: deterministic per (profile, seed, case)" `Quick
      gen_is_deterministic;
    Alcotest.test_case "gen: sound profile stays in hypothesis" `Quick
      gen_sound_stays_in_hypothesis;
    Alcotest.test_case "repro: codec round-trips generated scenarios" `Quick codec_roundtrips;
    Alcotest.test_case "repro: codec rejects garbage" `Quick codec_rejects_garbage;
    Alcotest.test_case "shrink: known failure minimizes and replays" `Slow shrinker_regression;
    Alcotest.test_case "shrink: deterministic descent" `Slow shrinker_is_deterministic;
    Alcotest.test_case "campaign: report identical for any domains" `Slow
      campaign_domains_invariant;
    Alcotest.test_case "campaign: sound profile is clean" `Slow campaign_sound_is_clean;
    Alcotest.test_case "campaign: hostile finds, shrinks, replays" `Slow
      campaign_hostile_finds_and_shrinks;
    Alcotest.test_case "property registry" `Quick property_registry;
  ]
