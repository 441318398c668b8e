(* Tests for the failure detectors: Never, Perfect, Oracle (scripted
   evp-P1), and the heartbeat implementation under partial synchrony. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let ring n = Cgraph.Topology.build (Cgraph.Topology.Ring n)

(* Every detector below watches a ring of 4; a query names the
   observer's slot for the target. *)
let slot4 observer target = Cgraph.Graph.dir_index (ring 4) observer target

let never_suspects_nothing () =
  let d = Fd.Never.create () in
  check bool "never suspects" false (d.Fd.Detector.suspects (slot4 0 1))

let perfect_tracks_crashes () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  let d = Fd.Perfect.create engine faults graph in
  let notified = ref [] in
  d.Fd.Detector.subscribe (fun obs -> notified := obs :: !notified);
  Net.Faults.schedule_crash faults ~pid:2 ~at:10;
  Sim.Engine.run_all engine;
  check bool "suspects crashed" true (d.Fd.Detector.suspects (slot4 1 2));
  check bool "does not suspect live" false (d.Fd.Detector.suspects (slot4 0 1));
  check (Alcotest.list int) "both neighbors notified" [ 1; 3 ] (List.sort compare !notified)

(* ------------------------------ Oracle ----------------------------- *)

let oracle_completeness () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  let _, d = Fd.Oracle.create engine faults graph ~detection_delay:25 () in
  Net.Faults.schedule_crash faults ~pid:0 ~at:100;
  ignore (Sim.Engine.schedule engine ~at:110 (fun () ->
      check bool "not yet detected" false (d.Fd.Detector.suspects (slot4 1 0))));
  ignore (Sim.Engine.schedule engine ~at:130 (fun () ->
      check bool "detected after delay" true (d.Fd.Detector.suspects (slot4 1 0));
      check bool "by both neighbors" true (d.Fd.Detector.suspects (slot4 3 0))));
  Sim.Engine.run_all engine

let oracle_false_positive_windows () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  let fps = [ { Fd.Oracle.observer = 1; target = 2; from_t = 50; till_t = 80 } ] in
  let oracle, d = Fd.Oracle.create engine faults graph ~false_positives:fps () in
  let changes = ref 0 in
  d.Fd.Detector.subscribe (fun _ -> incr changes);
  ignore (Sim.Engine.schedule engine ~at:60 (fun () ->
      check bool "suspected inside window" true (d.Fd.Detector.suspects (slot4 1 2))));
  ignore (Sim.Engine.schedule engine ~at:90 (fun () ->
      check bool "cleared after window" false (d.Fd.Detector.suspects (slot4 1 2))));
  Sim.Engine.run_all engine;
  check int "two output changes" 2 !changes;
  check int "convergence = window end" 80 (Fd.Oracle.convergence_time oracle)

let oracle_overlapping_windows () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  let fps =
    [
      { Fd.Oracle.observer = 0; target = 1; from_t = 10; till_t = 50 };
      { Fd.Oracle.observer = 0; target = 1; from_t = 30; till_t = 70 };
    ]
  in
  let _, d = Fd.Oracle.create engine faults graph ~false_positives:fps () in
  ignore (Sim.Engine.schedule engine ~at:55 (fun () ->
      check bool "still suspected (second window)" true (d.Fd.Detector.suspects (slot4 0 1))));
  ignore (Sim.Engine.schedule engine ~at:75 (fun () ->
      check bool "cleared after both" false (d.Fd.Detector.suspects (slot4 0 1))));
  Sim.Engine.run_all engine

let oracle_convergence_accounts_crashes () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  let oracle, _ = Fd.Oracle.create engine faults graph ~detection_delay:40 () in
  Net.Faults.schedule_crash faults ~pid:1 ~at:500;
  check int "conv = crash + delay" 540 (Fd.Oracle.convergence_time oracle)

(* The oracle keeps the script's latest window end, not the script:
   [convergence_time] is still the fold over the script, and once every
   window has fired and the engine has trimmed its pool, the oracle's
   heap is the same for a long script as for a one-window one. Windows
   end below tick 256, so both engines open the same wheel level. *)
let oracle_keeps_no_script =
  QCheck.Test.make ~name:"oracle: convergence is the script's last end, memory is script-free"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_bound 10_000))
    (fun (per_edge, seed) ->
      let graph = ring 6 in
      let build false_positives =
        let engine = Sim.Engine.create () in
        let faults = Net.Faults.create engine ~n:6 in
        let oracle, _ = Fd.Oracle.create engine faults graph ~false_positives () in
        (engine, oracle)
      in
      (* Run until the engine's trim has nothing more to drop. *)
      let settled_words (engine, oracle) =
        let words () =
          Sim.Engine.run_all engine;
          Obj.reachable_words (Obj.repr oracle)
        in
        let rec go prev n =
          let w = words () in
          if w = prev || n = 0 then w else go w (n - 1)
        in
        go (words ()) 8
      in
      let script =
        Fd.Oracle.random_false_positives
          (Sim.Rng.create (Int64.of_int seed))
          graph ~before:200 ~per_edge ~max_len:50
      in
      let fold =
        List.fold_left (fun acc (fp : Fd.Oracle.fp) -> max acc fp.till_t) 0 script
      in
      let long = build script in
      let one = build [ { Fd.Oracle.observer = 0; target = 1; from_t = 1; till_t = 2 } ] in
      Fd.Oracle.convergence_time (snd long) = fold
      && settled_words long = settled_words one)

(* [create_random] is [create] over [random_false_positives]: the same
   trace record for record (so the same windows, posted in the same
   order, under the same event ids), the same convergence time, and the
   generator left in the same state. *)
let oracle_create_random_matches_script =
  QCheck.Test.make ~name:"oracle: create_random posts the random script's windows in its order"
    ~count:60
    QCheck.(quad (int_bound 10_000) (int_range 0 3) (int_bound 3) (int_range 1 300))
    (fun (seed, per_edge, shape, max_len) ->
      let graph =
        Cgraph.Topology.build
          (match shape with
          | 0 -> Cgraph.Topology.Ring 7
          | 1 -> Cgraph.Topology.Clique 5
          | 2 -> Cgraph.Topology.Grid (3, 4)
          | _ -> Cgraph.Topology.Star 6)
      in
      let n = Cgraph.Graph.n graph and before = [| 0; 40; 3_000 |].(seed mod 3) in
      let run build =
        let engine = Sim.Engine.create ~recorder:(Obs.Recorder.collecting ()) () in
        let faults = Net.Faults.create engine ~n in
        let rng = Sim.Rng.create (Int64.of_int seed) in
        let oracle, _ = build engine faults rng in
        Net.Faults.schedule_crash faults ~pid:(seed mod n) ~at:(1 + (seed mod 500));
        let conv = Fd.Oracle.convergence_time oracle in
        Sim.Engine.run_all engine;
        (Obs.Recorder.records (Sim.Engine.recorder engine), conv, Sim.Rng.bits64 rng)
      in
      run (fun engine faults rng ->
          Fd.Oracle.create engine faults graph ~detection_delay:30
            ~false_positives:(Fd.Oracle.random_false_positives rng graph ~before ~per_edge ~max_len)
            ())
      = run (fun engine faults rng ->
            Fd.Oracle.create_random engine faults graph ~detection_delay:30 rng ~before ~per_edge
              ~max_len ()))

let oracle_rejects_bad_fp () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  Alcotest.check_raises "non-neighbor fp"
    (Invalid_argument "Oracle: false positive between non-neighbors") (fun () ->
      ignore
        (Fd.Oracle.create engine faults graph
           ~false_positives:[ { Fd.Oracle.observer = 0; target = 2; from_t = 0; till_t = 5 } ]
           ()))

let oracle_random_fp_structure () =
  let rng = Sim.Rng.create 21L in
  let graph = ring 6 in
  let fps = Fd.Oracle.random_false_positives rng graph ~before:1000 ~per_edge:2 ~max_len:50 in
  check int "count = 2 per directed edge" (2 * 2 * 6) (List.length fps);
  List.iter
    (fun fp ->
      check bool "window inside horizon" true
        (fp.Fd.Oracle.from_t >= 0 && fp.till_t <= 1000 && fp.from_t < fp.till_t);
      check bool "neighbors only" true (Cgraph.Graph.is_edge graph fp.observer fp.target))
    fps

(* ----------------------------- Heartbeat --------------------------- *)

let heartbeat_setup ?(period = 20) ?(initial_timeout = 30) ?(bump = 25) ~delay ~n () =
  let engine = Sim.Engine.create () in
  let graph = ring n in
  let faults = Net.Faults.create engine ~n in
  let rng = Sim.Rng.create 17L in
  let hb, d =
    Fd.Heartbeat.create ~engine ~faults ~graph ~delay ~rng ~period ~initial_timeout ~bump ()
  in
  (engine, faults, hb, d)

let heartbeat_no_mistakes_when_fast () =
  (* Delays well under the timeout: the detector should never suspect. *)
  let engine, _, hb, d = heartbeat_setup ~delay:(Net.Delay.Fixed 2) ~n:4 () in
  Sim.Engine.run engine ~until:5_000;
  check int "no mistakes" 0 (Fd.Heartbeat.mistakes hb);
  check bool "nobody suspected" false (d.Fd.Detector.suspects (slot4 0 1))

let heartbeat_completeness () =
  let engine, faults, _, d = heartbeat_setup ~delay:(Net.Delay.Fixed 2) ~n:4 () in
  Net.Faults.schedule_crash faults ~pid:2 ~at:1_000;
  Sim.Engine.run engine ~until:5_000;
  check bool "crashed suspected by 1" true (d.Fd.Detector.suspects (slot4 1 2));
  check bool "crashed suspected by 3" true (d.Fd.Detector.suspects (slot4 3 2));
  check bool "live unsuspected" false (d.Fd.Detector.suspects (slot4 0 1))

let heartbeat_eventual_accuracy_under_ps () =
  (* Pre-GST delays regularly exceed the initial timeout, forcing
     mistakes; adaptive timeouts must converge after GST. *)
  let delay = Net.Delay.Partial_synchrony { gst = 10_000; pre = (1, 120); post = (1, 5) } in
  let engine, _, hb, d = heartbeat_setup ~delay ~n:4 () in
  Sim.Engine.run engine ~until:60_000;
  check bool "made mistakes before GST" true (Fd.Heartbeat.mistakes hb > 0);
  (match Fd.Heartbeat.last_mistake hb with
  | Some t -> check bool "mistakes stop after GST settles" true (t < 20_000)
  | None -> Alcotest.fail "expected some mistakes");
  for i = 0 to 3 do
    check bool "accurate at the end" false (d.Fd.Detector.suspects (slot4 i ((i + 1) mod 4)))
  done

let heartbeat_timeout_grows () =
  let delay = Net.Delay.Partial_synchrony { gst = 5_000; pre = (1, 120); post = (1, 5) } in
  let engine, _, hb, _ = heartbeat_setup ~delay ~n:4 () in
  let before = Fd.Heartbeat.timeout hb ~observer:0 ~target:1 in
  Sim.Engine.run engine ~until:30_000;
  check bool "adaptive timeout increased" true (Fd.Heartbeat.timeout hb ~observer:0 ~target:1 >= before);
  check bool "mistakes happened" true (Fd.Heartbeat.mistakes hb > 0)

let heartbeat_notifies_subscribers () =
  let engine, faults, _, d = heartbeat_setup ~delay:(Net.Delay.Fixed 2) ~n:4 () in
  let changes = ref [] in
  d.Fd.Detector.subscribe (fun obs -> changes := obs :: !changes);
  Net.Faults.schedule_crash faults ~pid:0 ~at:500;
  Sim.Engine.run engine ~until:3_000;
  let observers = List.sort_uniq compare !changes in
  check (Alcotest.list int) "both neighbors of the crashed notified" [ 1; 3 ] observers

(* Regression: [Heartbeat.create] used to schedule the first beats and
   timeout checks at absolute times computed from 0, so building a
   detector on an engine whose clock had already advanced raised
   "Engine.schedule: at=... is in the past". All first beats and checks
   are now offset from [Engine.now] at creation. *)
let heartbeat_on_advanced_engine () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  (* Advance well past period and initial_timeout before creating. *)
  ignore (Sim.Engine.schedule engine ~at:500 (fun () -> ()));
  Sim.Engine.run_all engine;
  check int "engine pre-advanced" 500 (Sim.Engine.now engine);
  let hb, d =
    Fd.Heartbeat.create ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 2)
      ~rng:(Sim.Rng.create 17L) ~period:20 ~initial_timeout:30 ~bump:25 ()
  in
  Net.Faults.schedule_crash faults ~pid:2 ~at:1_500;
  Sim.Engine.run engine ~until:5_000;
  check int "no false suspicions" 0 (Fd.Heartbeat.mistakes hb);
  check bool "crash detected from a late start" true
    (d.Fd.Detector.suspects (slot4 1 2));
  check bool "live pair unsuspected" false (d.Fd.Detector.suspects (slot4 0 1))

(* The detector's behaviour must not depend on the creation time: a
   world started at 0 and one started at an arbitrary offset see the
   same mistakes and timeouts. *)
let heartbeat_offset_invariant () =
  let run offset =
    let engine = Sim.Engine.create () in
    let graph = ring 4 in
    let faults = Net.Faults.create engine ~n:4 in
    if offset > 0 then begin
      ignore (Sim.Engine.schedule engine ~at:offset (fun () -> ()));
      Sim.Engine.run_all engine
    end;
    let delay =
      Net.Delay.Partial_synchrony { gst = offset + 3_000; pre = (1, 120); post = (1, 5) }
    in
    let hb, _ =
      Fd.Heartbeat.create ~engine ~faults ~graph ~delay ~rng:(Sim.Rng.create 17L) ~period:20
        ~initial_timeout:30 ~bump:25 ()
    in
    Sim.Engine.run engine ~until:(offset + 20_000);
    ( Fd.Heartbeat.mistakes hb,
      List.init 4 (fun i -> Fd.Heartbeat.timeout hb ~observer:i ~target:((i + 1) mod 4)),
      Option.map (fun t -> t - offset) (Fd.Heartbeat.last_mistake hb) )
  in
  let at0 = run 0 in
  check bool "same mistakes/timeouts when created at t=7777" true (run 7_777 = at0);
  let mistakes, _, _ = at0 in
  check bool "scenario exercises the adaptive path" true (mistakes > 0)

(* Delays up to four times the initial timeout make false suspicions
   and the heartbeats that clear them routine, and a bump of 1 keeps
   them coming. On a warm detector a flip records the mistake and
   notifies both subscribers, and the recovery notifies them again,
   without allocating: the run's events (beats, deliveries, checks)
   allocate nothing either, so the window reads exactly 0. *)
let heartbeat_flip_allocates_nothing () =
  let engine, _, hb, d = heartbeat_setup ~delay:(Net.Delay.Uniform (1, 120)) ~bump:1 ~n:8 () in
  let flips = ref 0 and last = ref (-1) in
  d.Fd.Detector.subscribe (fun _ -> incr flips);
  d.Fd.Detector.subscribe (fun observer -> last := observer);
  Sim.Engine.run engine ~until:3_000;
  let mistakes = Fd.Heartbeat.mistakes hb and flips0 = !flips in
  let words = Alloc.words (fun () -> Sim.Engine.run engine ~until:6_000) in
  let suspicions = Fd.Heartbeat.mistakes hb - mistakes in
  check bool "the window has false suspicions" true (suspicions > 10);
  check bool "and recoveries, which notify too" true (!flips - flips0 - suspicions > 10);
  check bool "the second subscriber heard them" true (!last >= 0);
  check (Alcotest.float 0.) "words for the window's flips and recoveries" 0. words

(* ---------------------------- Unreliable --------------------------- *)

let unreliable_keeps_lying () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  let d =
    Fd.Unreliable.create engine faults graph (Sim.Rng.create 5L) ~period:100 ~duration:20
      ~horizon:10_000 ()
  in
  (* Sample suspicion of a live pair across the whole run: it must recur
     arbitrarily late (no convergence). *)
  let last_lie = ref 0 in
  let rec sample t =
    if t <= 10_000 then
      ignore
        (Sim.Engine.schedule engine ~at:t (fun () ->
             if d.Fd.Detector.suspects (slot4 0 1) then last_lie := t;
             sample (t + 10)))
  in
  sample 0;
  Sim.Engine.run_all engine;
  check bool "false suspicions recur late in the run" true (!last_lie > 9_000)

let unreliable_still_complete () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  let d =
    Fd.Unreliable.create engine faults graph (Sim.Rng.create 5L) ~period:2_000 ~duration:150
      ~horizon:5_000 ()
  in
  Net.Faults.schedule_crash faults ~pid:2 ~at:1_000;
  Sim.Engine.run engine ~until:5_000;
  check bool "crashed permanently suspected" true (d.Fd.Detector.suspects (slot4 1 2))

let unreliable_validates () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  Alcotest.check_raises "duration >= period rejected"
    (Invalid_argument "Unreliable.create: need 0 < duration < period") (fun () ->
      ignore
        (Fd.Unreliable.create engine faults graph (Sim.Rng.create 1L) ~period:10 ~duration:10
           ~horizon:100 ()))

(* Regression: the oracle kept its suspicions in Hashtbls keyed on an
   (observer, target) tuple, so every query, made once per neighbor in
   each of the algorithm's guard loops, allocated 8 words. *)
let oracle_suspects_allocates_nothing () =
  let engine = Sim.Engine.create () in
  let graph = ring 4 in
  let faults = Net.Faults.create engine ~n:4 in
  let fps = [ { Fd.Oracle.observer = 0; target = 1; from_t = 10; till_t = 50 } ] in
  let _, d = Fd.Oracle.create engine faults graph ~false_positives:fps () in
  Net.Faults.schedule_crash faults ~pid:2 ~at:5;
  Sim.Engine.run engine ~until:100;
  let hits = ref 0 in
  let s01 = slot4 0 1 and s12 = slot4 1 2 and s03 = slot4 0 3 in
  let words =
    Alloc.words (fun () ->
        for _ = 1 to 1000 do
          if d.Fd.Detector.suspects s01 then incr hits;
          if d.Fd.Detector.suspects s12 then incr hits;
          if d.Fd.Detector.suspects s03 then incr hits
        done)
  in
  check int "only the crashed neighbor is suspected" 1000 !hits;
  check (Alcotest.float 0.) "words for 3000 queries" 0. words

(* Every detector answers by the observer's slot. Over one run with two
   crashes and, where the detector makes them, false suspicions, the
   slot query agrees at every slot and every tick with a pair query
   kept here: the (observer, target) flips the detector reports to the
   engine's recorder, or, for the two that report none, their
   definition by pid. *)
let slot_queries_match_pair_queries () =
  let horizon = 3_000 in
  let run name =
    let engine = Sim.Engine.create () in
    let graph = ring 6 in
    let faults = Net.Faults.create engine ~n:6 in
    let flips = Hashtbl.create 16 in
    Obs.Recorder.on_record (Sim.Engine.recorder engine) (fun r ->
        match r.Obs.Record.kind with
        | Obs.Record.Suspect { observer; target; on } -> Hashtbl.replace flips (observer, target) on
        | _ -> ());
    let recorded ~observer ~target =
      Option.value ~default:false (Hashtbl.find_opt flips (observer, target))
    in
    let d, pair =
      match name with
      | "never" -> (Fd.Never.create (), fun ~observer:_ ~target:_ -> false)
      | "perfect" ->
          ( Fd.Perfect.create engine faults graph,
            fun ~observer:_ ~target -> Net.Faults.is_crashed faults target )
      | "oracle" ->
          let false_positives =
            Fd.Oracle.random_false_positives (Sim.Rng.create 3L) graph ~before:2_000 ~per_edge:2
              ~max_len:200
          in
          (snd (Fd.Oracle.create engine faults graph ~detection_delay:40 ~false_positives ()), recorded)
      | "heartbeat" ->
          let delay = Net.Delay.Partial_synchrony { gst = 1_500; pre = (1, 120); post = (1, 5) } in
          ( snd
              (Fd.Heartbeat.create ~engine ~faults ~graph ~delay ~rng:(Sim.Rng.create 17L)
                 ~period:20 ~initial_timeout:30 ~bump:25 ()),
            recorded )
      | _ ->
          ( Fd.Unreliable.create engine faults graph (Sim.Rng.create 5L) ~period:300
              ~duration:40 ~horizon (),
            recorded )
    in
    List.iter (fun (pid, at) -> Net.Faults.schedule_crash faults ~pid ~at) [ (2, 400); (5, 1_100) ];
    let off = Cgraph.Graph.csr_offsets graph and nbr = Cgraph.Graph.csr_targets graph in
    let true_hits = ref 0 and false_hits = ref 0 in
    for tick = 0 to horizon do
      Sim.Engine.run engine ~until:tick;
      for observer = 0 to 5 do
        for s = off.(observer) to off.(observer + 1) - 1 do
          let target = nbr.(s) in
          let by_slot = d.Fd.Detector.suspects s in
          if by_slot <> pair ~observer ~target then
            Alcotest.failf "%s, t=%d: slot query %b, pair query %b for (%d, %d)" name tick by_slot
              (not by_slot) observer target;
          if by_slot then
            if Net.Faults.is_crashed faults target then incr true_hits else incr false_hits
        done
      done
    done;
    (!true_hits, !false_hits)
  in
  check (Alcotest.pair int int) "never: no suspicion" (0, 0) (run "never");
  let perfect_true, perfect_false = run "perfect" in
  check bool "perfect: crashes suspected" true (perfect_true > 0);
  check int "perfect: no mistakes" 0 perfect_false;
  List.iter
    (fun name ->
      let hits, mistakes = run name in
      check bool (name ^ ": crashes suspected") true (hits > 0);
      check bool (name ^ ": false suspicions exercised") true (mistakes > 0))
    [ "oracle"; "heartbeat"; "unreliable" ]

let suite =
  [
    Alcotest.test_case "never: constant output" `Quick never_suspects_nothing;
    Alcotest.test_case "unreliable: accuracy violated forever" `Quick unreliable_keeps_lying;
    Alcotest.test_case "unreliable: completeness retained" `Quick unreliable_still_complete;
    Alcotest.test_case "unreliable: parameter validation" `Quick unreliable_validates;
    Alcotest.test_case "perfect: instant completeness, no mistakes" `Quick perfect_tracks_crashes;
    Alcotest.test_case "oracle: local strong completeness" `Quick oracle_completeness;
    Alcotest.test_case "oracle: scripted false positives" `Quick oracle_false_positive_windows;
    Alcotest.test_case "oracle: overlapping windows" `Quick oracle_overlapping_windows;
    Alcotest.test_case "oracle: convergence time with crashes" `Quick oracle_convergence_accounts_crashes;
    Alcotest.test_case "oracle: validates windows" `Quick oracle_rejects_bad_fp;
    Alcotest.test_case "oracle: random window generator" `Quick oracle_random_fp_structure;
    Seeded.to_alcotest oracle_keeps_no_script;
    Seeded.to_alcotest oracle_create_random_matches_script;
    Alcotest.test_case "heartbeat: quiet when delays are short" `Quick heartbeat_no_mistakes_when_fast;
    Alcotest.test_case "heartbeat: completeness" `Quick heartbeat_completeness;
    Alcotest.test_case "heartbeat: eventual accuracy under partial synchrony" `Quick
      heartbeat_eventual_accuracy_under_ps;
    Alcotest.test_case "heartbeat: adaptive timeout grows" `Quick heartbeat_timeout_grows;
    Alcotest.test_case "heartbeat: change notifications" `Quick heartbeat_notifies_subscribers;
    Alcotest.test_case "heartbeat: create on a pre-advanced engine" `Quick
      heartbeat_on_advanced_engine;
    Alcotest.test_case "heartbeat: behaviour independent of creation time" `Quick
      heartbeat_offset_invariant;
    Alcotest.test_case "oracle: suspects allocates nothing" `Quick
      oracle_suspects_allocates_nothing;
    Alcotest.test_case "every detector: slot queries match pair queries" `Quick
      slot_queries_match_pair_queries;
    Alcotest.test_case "heartbeat: a suspicion flip and its recovery allocate nothing" `Quick
      heartbeat_flip_allocates_nothing;
  ]
