(* End-to-end properties of whole scenarios through the harness: the
   paper's theorems as randomized properties over topologies, seeds,
   crash plans and detectors. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let quiet_oracle : Harness.Scenario.detector_kind =
  Harness.Scenario.Oracle { detection_delay = 50; fp_per_edge = 0; fp_window = 0; fp_max_len = 1 }

let noisy_oracle : Harness.Scenario.detector_kind =
  Harness.Scenario.Oracle { detection_delay = 50; fp_per_edge = 2; fp_window = 6_000; fp_max_len = 200 }

let scenario ?(topology = Cgraph.Topology.Ring 8) ?(seed = 1L) ?(detector = quiet_oracle)
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

(* -------------------------- basic plumbing ------------------------- *)

let deterministic_replay () =
  let s =
    scenario ~topology:(Cgraph.Topology.Random_gnp (14, 0.25, 2L)) ~detector:noisy_oracle
      ~crashes:(Harness.Scenario.Random_crashes { count = 2; from_t = 1_000; to_t = 9_000 })
      ()
  in
  let a = Harness.World.run s and b = Harness.World.run s in
  check int "same eats" a.total_eats b.total_eats;
  check int "same events" a.events_processed b.events_processed;
  check int "same violations" (Monitor.Exclusion.count a.exclusion) (Monitor.Exclusion.count b.exclusion);
  check bool "same crash plan" true (a.crashed = b.crashed)

(* Replay holds down to the trace: two runs of the same scenario emit
   byte-identical JSONL from the engine recorder. *)
let trace_replay () =
  let s =
    scenario ~topology:(Cgraph.Topology.Random_gnp (14, 0.25, 2L)) ~detector:noisy_oracle
      ~crashes:(Harness.Scenario.Random_crashes { count = 2; from_t = 1_000; to_t = 9_000 })
      ()
  in
  let run () =
    let recorder = Obs.Recorder.collecting () in
    ignore (Harness.World.run ~recorder s);
    Obs.Jsonl.of_records (Obs.Recorder.records recorder)
  in
  let a = run () and b = run () in
  check bool "trace nonempty" true (a <> "");
  check bool "identical traces" true (a = b)

let seed_changes_run () =
  let s1 = scenario ~seed:1L () and s2 = scenario ~seed:2L () in
  let a = Harness.World.run s1 and b = Harness.World.run s2 in
  check bool "different seeds differ" true (a.events_processed <> b.events_processed)

let crash_plans () =
  let explicit =
    scenario ~crashes:(Harness.Scenario.Crash_at [ (3, 1_000); (0, 500) ]) ()
  in
  let r = Harness.World.run explicit in
  check bool "explicit plan sorted" true (r.crashed = [ (0, 500); (3, 1_000) ]);
  let random =
    scenario ~crashes:(Harness.Scenario.Random_crashes { count = 3; from_t = 100; to_t = 5_000 }) ()
  in
  let r2 = Harness.World.run random in
  check int "three victims" 3 (List.length r2.crashed);
  let pids = List.map fst r2.crashed in
  check int "distinct victims" 3 (List.length (List.sort_uniq compare pids))

let workload_drives_everyone () =
  let r = Harness.World.run (scenario ()) in
  check bool "every process ate" true (Array.for_all (fun e -> e > 0) r.eats_per_process);
  check bool "hungry transitions >= eats" true (r.hungry_transitions >= r.total_eats)

(* Tracing keeps a sharded engine on its sequential loop, so a
   [shard_safe] network on it must account exactly like one on an
   unsharded engine: cross-shard edge updates apply in place, since no
   parallel step is there to stage and flush them. *)
let sharded_network_traced_fallback () =
  let graph = Cgraph.Topology.build (Cgraph.Topology.Random_gnp (24, 0.2, 3L)) in
  let n = Cgraph.Graph.n graph in
  let off = Cgraph.Graph.csr_offsets graph in
  let tgt = Cgraph.Graph.csr_targets graph in
  let run ?pool () =
    let recorder = Obs.Recorder.collecting () in
    let engine = Sim.Engine.create ~recorder () in
    Option.iter (fun pool -> Sim.Engine.set_sharding engine ~pool ~shards:4 ~n ()) pool;
    let faults = Net.Faults.create engine ~n in
    let network =
      Net.Network.create ~engine ~graph ~delay:(Net.Delay.Uniform (1, 6)) ~faults
        ~rng:(Sim.Rng.create 9L) ~shard_safe:true ~handler:(fun ~dst:_ ~src:_ () -> ()) ()
    in
    (* Process [i]'s beat, owned by [i], with the beats left in [a]. *)
    let beat = ref 0 in
    beat :=
      Sim.Engine.register engine (fun i k _ ->
          for s = off.(i) to off.(i + 1) - 1 do
            Net.Network.send network ~src:i ~dst:tgt.(s) ()
          done;
          if k > 0 then
            Sim.Engine.post engine ~kind:!beat ~owner:i
              ~at:(Sim.Engine.now engine + 1 + (i mod 3))
              (k - 1) 0);
    for i = 0 to n - 1 do
      Sim.Engine.post engine ~kind:!beat ~owner:i ~at:(i mod 4) 20 0
    done;
    Sim.Engine.run engine ~until:60;
    let stats = Net.Network.stats network in
    ( ( Net.Link_stats.total_sent stats,
        Net.Link_stats.total_delivered stats,
        Net.Link_stats.per_edge_watermarks stats ),
      Obs.Jsonl.of_records (Obs.Recorder.records recorder) )
  in
  let (sent, delivered, marks), trace = run () in
  check bool "traffic flowed, some still in flight" true (sent > delivered && delivered > 0);
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let (sent', delivered', marks'), trace' = run ~pool () in
      check int "same sent total" sent sent';
      check int "same delivered total" delivered delivered';
      check bool "same edge watermarks" true (marks = marks');
      check bool "identical traces" true (trace = trace'))

(* The shard-safe ping workload is where sharding buys real parallelism:
   shard-parallel execution on a domain pool must equal the engine's
   sequential loop exactly, at every shard count. *)
let shard_ping_parallel_equality () =
  let topology = Cgraph.Topology.Random_gnp (48, 0.12, 5L) in
  let horizon = 1_500 in
  let seq = Harness.Shard_ping.run ~topology ~horizon () in
  check bool "traffic flowed" true (seq.Harness.Shard_ping.sent > 0 && seq.received > 0);
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun shards ->
          let r = Harness.Shard_ping.run ~pool ~shards ~topology ~horizon () in
          check bool
            (Printf.sprintf "parallel shards=%d equals sequential" shards)
            true (r = seq))
        [ 2; 3; 4; 8 ])

(* ----------------------- theorem-shaped checks --------------------- *)

let wait_freedom_property =
  QCheck.Test.make ~name:"harness: wait-freedom on random scenarios (Theorem 2)" ~count:15
    QCheck.(triple (int_bound 10_000) (int_range 0 4) (int_bound 2))
    (fun (seed, crash_count, topo_idx) ->
      let topology =
        match topo_idx with
        | 0 -> Cgraph.Topology.Ring 10
        | 1 -> Cgraph.Topology.Clique 6
        | _ -> Cgraph.Topology.Random_gnp (12, 0.3, Int64.of_int (seed + 1))
      in
      let s =
        scenario ~topology ~seed:(Int64.of_int seed) ~detector:noisy_oracle
          ~crashes:
            (if crash_count = 0 then Harness.Scenario.No_crashes
             else Harness.Scenario.Random_crashes { count = crash_count; from_t = 1_000; to_t = 15_000 })
          ~horizon:50_000 ()
      in
      let r = Harness.World.run s in
      Harness.World.starved r ~older_than:10_000 = [] && r.invariant_error = None)

let safety_property =
  QCheck.Test.make ~name:"harness: no violations after convergence (Theorem 1)" ~count:15
    QCheck.(pair (int_bound 10_000) (int_bound 2))
    (fun (seed, topo_idx) ->
      let topology =
        match topo_idx with
        | 0 -> Cgraph.Topology.Ring 10
        | 1 -> Cgraph.Topology.Clique 6
        | _ -> Cgraph.Topology.Star 8
      in
      let s =
        scenario ~topology ~seed:(Int64.of_int seed) ~detector:noisy_oracle
          ~crashes:(Harness.Scenario.Random_crashes { count = 1; from_t = 1_000; to_t = 10_000 })
          ~workload:{ think = (0, 100); eat = (5, 30) }
          ~horizon:40_000 ()
      in
      let r = Harness.World.run s in
      Monitor.Exclusion.count_after r.exclusion r.convergence = 0)

let bounded_waiting_property =
  QCheck.Test.make ~name:"harness: 2-bounded waiting after convergence (Theorem 3)" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let s =
        scenario ~topology:(Cgraph.Topology.Clique 5) ~seed:(Int64.of_int seed)
          ~detector:noisy_oracle ~workload:Harness.Scenario.contended_workload ~horizon:40_000 ()
      in
      let r = Harness.World.run s in
      Monitor.Fairness.max_consecutive_for_sessions_from r.fairness r.convergence <= 2)

let channel_capacity_property =
  QCheck.Test.make ~name:"harness: <= 4 messages per edge (Section 7)" ~count:10
    QCheck.(pair (int_bound 10_000) (int_bound 2))
    (fun (seed, topo_idx) ->
      let topology =
        match topo_idx with
        | 0 -> Cgraph.Topology.Torus (3, 3)
        | 1 -> Cgraph.Topology.Clique 6
        | _ -> Cgraph.Topology.Binary_tree 9
      in
      let s =
        scenario ~topology ~seed:(Int64.of_int seed) ~detector:noisy_oracle
          ~workload:Harness.Scenario.contended_workload
          ~crashes:(Harness.Scenario.Random_crashes { count = 1; from_t = 500; to_t = 5_000 })
          ~horizon:20_000 ()
      in
      let r = Harness.World.run s in
      Net.Link_stats.max_edge_watermark r.link_stats <= 4)

let heartbeat_end_to_end () =
  let s =
    scenario
      ~topology:(Cgraph.Topology.Ring 10)
      ~detector:(Harness.Scenario.Heartbeat { period = 20; initial_timeout = 30; bump = 25 })
      ~crashes:(Harness.Scenario.Crash_at [ (4, 10_000) ])
      ~horizon:60_000 ()
  in
  let s = { s with delay = Net.Delay.Partial_synchrony { gst = 15_000; pre = (1, 100); post = (1, 8) } } in
  let r = Harness.World.run s in
  check bool "wait-free" true (Harness.World.starved r ~older_than:10_000 = []);
  check int "safe after measured convergence" 0
    (Monitor.Exclusion.count_after r.exclusion r.convergence);
  check bool "invariants held" true (r.invariant_error = None)

let choy_singh_baseline_contrast () =
  let crashes = Harness.Scenario.Crash_at [ (2, 3_000) ] in
  let ours = Harness.World.run (scenario ~detector:quiet_oracle ~crashes ()) in
  let baseline = Harness.World.run (scenario ~detector:Harness.Scenario.Never ~crashes ()) in
  check bool "ours wait-free" true (Harness.World.starved ours ~older_than:10_000 = []);
  check bool "baseline starves" true (Harness.World.starved baseline ~older_than:10_000 <> []);
  check bool "baseline still safe" true (Monitor.Exclusion.count baseline.exclusion = 0)

let perfect_detector_is_perpetually_safe () =
  let r =
    Harness.World.run
      (scenario ~detector:Harness.Scenario.Perfect
         ~crashes:(Harness.Scenario.Random_crashes { count = 3; from_t = 1_000; to_t = 10_000 })
         ~workload:Harness.Scenario.contended_workload ())
  in
  check int "zero violations ever" 0 (Monitor.Exclusion.count r.exclusion);
  check bool "wait-free" true (Harness.World.starved r ~older_than:10_000 = [])

let throughput_sane () =
  let r = Harness.World.run (scenario ()) in
  check bool "throughput positive" true (Harness.World.throughput r > 0.0);
  check bool "eats within horizon" true (r.total_eats > 0)

(* ------------------------- stabilize harness ----------------------- *)

let stabilize_run_report () =
  let spec =
    {
      Harness.Run_stabilize.protocol = Harness.Run_stabilize.Coloring;
      transient_faults = [ (8_000, 3) ];
      scenario =
        scenario
          ~topology:(Cgraph.Topology.Random_gnp (12, 0.3, 4L))
          ~detector:noisy_oracle
          ~crashes:(Harness.Scenario.Crash_at [ (1, 2_000) ])
          ~horizon:40_000 ();
    }
  in
  let r = Harness.Run_stabilize.run spec in
  check bool "converged" true (r.outcome.converged_at <> None);
  check int "no residual error" 0 r.outcome.final_error;
  check bool "invariants" true (r.invariant_error = None);
  check bool "error series recorded" true (List.length r.outcome.error_series > 1)

let stabilize_token_ring_requires_ring () =
  let spec =
    {
      Harness.Run_stabilize.protocol = Harness.Run_stabilize.Token_ring;
      transient_faults = [];
      scenario = scenario ~topology:(Cgraph.Topology.Clique 4) ();
    }
  in
  Alcotest.check_raises "non-ring rejected"
    (Invalid_argument "Run_stabilize: token ring needs a ring topology") (fun () ->
      ignore (Harness.Run_stabilize.run spec))

(* ------------------------- experiment registry --------------------- *)

let unreliable_detector_breaks_safety_not_liveness () =
  let s =
    scenario
      ~topology:(Cgraph.Topology.Clique 5)
      ~detector:(Harness.Scenario.Unreliable { period = 1_000; duration = 120 })
      ~workload:{ think = (0, 60); eat = (10, 30) }
      ~crashes:(Harness.Scenario.Crash_at [ (1, 5_000) ])
      ~horizon:40_000 ()
  in
  let r = Harness.World.run s in
  check bool "still wait-free" true (Harness.World.starved r ~older_than:10_000 = []);
  check bool "violations never stop (accuracy is load-bearing)" true
    (Monitor.Exclusion.count_after r.exclusion (2 * 40_000 / 3) > 0);
  check bool "structural lemmas still hold" true (r.invariant_error = None)

let batch_aggregates () =
  let s =
    scenario
      ~topology:(Cgraph.Topology.Ring 8)
      ~detector:noisy_oracle
      ~crashes:(Harness.Scenario.Random_crashes { count = 1; from_t = 1_000; to_t = 8_000 })
      ~horizon:25_000 ()
  in
  let a = Harness.Batch.run ~seeds:4 s in
  check int "runs" 4 a.runs;
  check int "eats summary count" 4 a.total_eats.count;
  check int "no post-convergence violations across seeds" 0 a.violations_after_conv_total;
  check bool "bounded overtaking across seeds" true (a.max_overtakes_after_conv <= 2);
  check int "nobody starved across seeds" 0 a.starved_total;
  check bool "watermark" true (a.worst_edge_watermark <= 4);
  check bool "invariants" true (a.invariant_errors = []);
  check bool "pp renders" true (String.length (Format.asprintf "%a" Harness.Batch.pp a) > 0)

let ring16_heartbeat () =
  let s =
    scenario
      ~topology:(Cgraph.Topology.Ring 16)
      ~detector:(Harness.Scenario.Heartbeat { period = 20; initial_timeout = 30; bump = 25 })
      ~crashes:(Harness.Scenario.Crash_at [ (5, 6_000) ])
      ~horizon:20_000 ()
  in
  { s with delay = Net.Delay.Partial_synchrony { gst = 8_000; pre = (1, 60); post = (1, 8) } }

let batch_parallel_equals_sequential () =
  let s = ring16_heartbeat () in
  let seq = Harness.Batch.run ~seeds:4 ~domains:1 s in
  let par = Harness.Batch.run ~seeds:4 ~domains:4 s in
  (* Full structural equality: every summary, every fold, and the
     invariant_errors list in seed order. *)
  check bool "aggregates equal" true (seq = par);
  check Alcotest.string "printed form byte-identical"
    (Format.asprintf "%a" Harness.Batch.pp seq)
    (Format.asprintf "%a" Harness.Batch.pp par)

let batch_patience_knob () =
  let s = ring16_heartbeat () in
  let default = Harness.Batch.run ~seeds:2 s in
  let explicit = Harness.Batch.run ~seeds:2 ~patience:(s.horizon / 4) s in
  check bool "default patience is horizon/4" true (default = explicit);
  let impatient = Harness.Batch.run ~seeds:2 ~patience:1 s in
  check bool "tighter patience can only find more stragglers" true
    (impatient.starved_total >= default.starved_total)

let world_staged_advance () =
  let s = ring16_heartbeat () in
  let w = Harness.World.create s in
  check int "fresh world at time zero" 0 (Harness.World.now w);
  Harness.World.advance w ~until:(s.horizon / 3);
  Harness.World.advance w ~until:s.horizon;
  let staged = Harness.World.report w in
  let oneshot = Harness.World.run s in
  check int "same eats" oneshot.total_eats staged.total_eats;
  check int "same events" oneshot.events_processed staged.events_processed;
  check int "same hungry transitions" oneshot.hungry_transitions staged.hungry_transitions;
  check bool "same convergence" true (oneshot.convergence = staged.convergence);
  check bool "same crash plan" true (oneshot.crashed = staged.crashed);
  check bool "same per-process eats" true (oneshot.eats_per_process = staged.eats_per_process)

let replay_property =
  QCheck.Test.make ~name:"harness: Run.run twice gives identical summaries" ~count:8
    QCheck.(pair (int_bound 10_000) (int_bound 2))
    (fun (seed, topo_idx) ->
      let topology =
        match topo_idx with
        | 0 -> Cgraph.Topology.Ring 8
        | 1 -> Cgraph.Topology.Clique 5
        | _ -> Cgraph.Topology.Random_gnp (10, 0.3, Int64.of_int (seed + 1))
      in
      let s =
        scenario ~topology ~seed:(Int64.of_int seed) ~detector:noisy_oracle
          ~crashes:(Harness.Scenario.Random_crashes { count = 1; from_t = 500; to_t = 8_000 })
          ~horizon:15_000 ()
      in
      let a = Harness.World.run s and b = Harness.World.run s in
      a.total_eats = b.total_eats
      && a.events_processed = b.events_processed
      && a.hungry_transitions = b.hungry_transitions
      && a.convergence = b.convergence
      && a.crashed = b.crashed
      && a.eats_per_process = b.eats_per_process
      && a.invariant_error = b.invariant_error
      && Monitor.Exclusion.count a.exclusion = Monitor.Exclusion.count b.exclusion
      && Monitor.Response.summary a.response = Monitor.Response.summary b.response
      && Net.Link_stats.max_edge_watermark a.link_stats
         = Net.Link_stats.max_edge_watermark b.link_stats)

let names_stable () =
  check Alcotest.string "algo name" "song-pike" (Harness.Scenario.algo_name Harness.Scenario.Song_pike);
  check Alcotest.string "ordered name" "ordered" (Harness.Scenario.algo_name Harness.Scenario.Ordered);
  check Alcotest.string "never" "never" (Harness.Scenario.detector_name Harness.Scenario.Never);
  check Alcotest.string "oracle" "oracle-evp" (Harness.Scenario.detector_name noisy_oracle);
  check Alcotest.string "unreliable" "unreliable-forever"
    (Harness.Scenario.detector_name (Harness.Scenario.Unreliable { period = 100; duration = 10 }));
  check Alcotest.string "protocol names" "bfs-tree"
    (Harness.Run_stabilize.protocol_name Harness.Run_stabilize.Bfs_tree)

let phases_in_report () =
  let r = Harness.World.run (scenario ~workload:Harness.Scenario.contended_workload ()) in
  let d = Monitor.Response.doorway_summary r.response in
  let f = Monitor.Response.fork_summary r.response in
  check bool "doorway samples collected" true (d.count > 100);
  check bool "phase means are plausible" true (d.mean >= 0.0 && f.mean >= 0.0);
  (* Baselines produce no doorway samples. *)
  let rb =
    Harness.World.run
      (scenario ~algo:Harness.Scenario.Chandy_misra ~detector:Harness.Scenario.Never ())
  in
  check int "no doorway samples for baselines" 0 (Monitor.Response.doorway_summary rb.response).count

(* The report's footprint is Section 7's closed form at the busiest
   process, 3 + bits(max color) + 6 * max degree. A scale-free graph puts
   that maximum at a hub far above the mean degree. *)
let footprint_closed_form_at_hub () =
  let n = 300 in
  let r =
    Harness.World.run (scenario ~topology:(Cgraph.Topology.Scale_free (n, 2, 5L)) ~horizon:2_000 ())
  in
  let max_color = Array.fold_left max 0 (Cgraph.Coloring.greedy r.graph) in
  let rec bits acc v = if v <= 0 then max acc 1 else bits (acc + 1) (v lsr 1) in
  let delta = Cgraph.Graph.max_degree r.graph in
  let mean_degree = 2 * Cgraph.Graph.edge_count r.graph / n in
  check bool "the hub's degree is far above the mean" true (delta > 4 * mean_degree);
  check (Alcotest.option int) "max footprint bits"
    (Some (3 + bits 0 max_color + (6 * delta)))
    r.max_footprint_bits

let experiments_registry () =
  check int "eighteen experiments" 18 (List.length Harness.Experiments.all);
  check bool "find e1" true (Harness.Experiments.find "E1" <> None);
  check bool "unknown id" true (Harness.Experiments.find "zz" = None);
  List.iter
    (fun (e : Harness.Experiments.t) ->
      check bool (e.id ^ " nonempty") true (e.title <> "" && e.claim <> ""))
    Harness.Experiments.all

(* Memory per process stays O(delta) for any run length: a world's
   reachable heap after [report] is the same at horizon 1 200 and at
   16x that. Logs kept per overtake or per session would grow about 7x
   here. A victim crashing just before the horizon has been sent to for
   the whole run: a log of those sends would grow about 5%. *)
let memory_flat_in_run_length () =
  let words crashes horizon =
    let s =
      {
        (scenario ~topology:(Cgraph.Topology.Ring 200) ~detector:Harness.Scenario.Never
           ~crashes:(crashes horizon) ~horizon ())
        with
        delay = Net.Delay.Uniform (1, 8);
        check_every = None;
      }
    in
    let w = Harness.World.create s in
    Harness.World.advance w ~until:horizon;
    ignore (Harness.World.report w);
    Obj.reachable_words (Obj.repr w)
  in
  List.iter
    (fun (name, crashes) ->
      let short = words crashes 1_200 and long = words crashes 19_200 in
      check bool
        (Printf.sprintf "%s: reachable words %d at 1 200 vs %d at 19 200 agree within 2%%" name
           short long)
        true
        (50 * abs (long - short) <= short))
    [
      ("no crashes", fun _ -> Harness.Scenario.No_crashes);
      ("crash at horizon - 100", fun h -> Harness.Scenario.Crash_at [ (0, h - 100) ]);
    ]

(* The recorder only counts records that flow: a world run untraced
   leaves the sequence untouched, so a sink attached mid-run starts at
   seq 0. *)
let recorder_silent_until_traced () =
  let recorder = Obs.Recorder.create () in
  let w = Harness.World.create ~recorder (scenario ~horizon:4_000 ()) in
  Harness.World.advance w ~until:2_000;
  let first = ref None in
  Obs.Recorder.on_record recorder (fun r -> if !first = None then first := Some r.seq);
  Harness.World.advance w ~until:4_000;
  check (Alcotest.option int) "first traced record" (Some 0) !first

let suite =
  [
    Alcotest.test_case "deterministic replay" `Quick deterministic_replay;
    Alcotest.test_case "replay is trace-identical" `Quick trace_replay;
    Alcotest.test_case "seed sensitivity" `Quick seed_changes_run;
    Alcotest.test_case "crash plans" `Quick crash_plans;
    Alcotest.test_case "workload drives everyone" `Quick workload_drives_everyone;
    Alcotest.test_case "traced sharded network falls back in place" `Quick
      sharded_network_traced_fallback;
    Alcotest.test_case "batch: domains:1 = domains:4 bit-identical" `Slow
      batch_parallel_equals_sequential;
    QCheck_alcotest.to_alcotest wait_freedom_property;
    QCheck_alcotest.to_alcotest safety_property;
    QCheck_alcotest.to_alcotest bounded_waiting_property;
    QCheck_alcotest.to_alcotest channel_capacity_property;
    Alcotest.test_case "heartbeat detector end to end" `Slow heartbeat_end_to_end;
    Alcotest.test_case "Choy-Singh contrast (Theorem 2 motivation)" `Quick choy_singh_baseline_contrast;
    Alcotest.test_case "perfect detector: perpetual exclusion" `Quick perfect_detector_is_perpetually_safe;
    Alcotest.test_case "throughput sanity" `Quick throughput_sane;
    Alcotest.test_case "unreliable detector: wait-free but never safe" `Quick
      unreliable_detector_breaks_safety_not_liveness;
    Alcotest.test_case "stabilize harness report" `Quick stabilize_run_report;
    Alcotest.test_case "stabilize validates topology" `Quick stabilize_token_ring_requires_ring;
    Alcotest.test_case "names are stable" `Quick names_stable;
    Alcotest.test_case "phase breakdown in reports" `Quick phases_in_report;
    Alcotest.test_case "batch: multi-seed aggregation" `Slow batch_aggregates;
    Alcotest.test_case "batch: ?patience knob" `Slow batch_patience_knob;
    Alcotest.test_case "world: staged advance = one-shot run" `Quick world_staged_advance;
    QCheck_alcotest.to_alcotest replay_property;
    Alcotest.test_case "experiment registry" `Quick experiments_registry;
    Alcotest.test_case "report: footprint is the closed form at the hub" `Quick
      footprint_closed_form_at_hub;
    Alcotest.test_case "world: memory does not grow with run length" `Quick
      memory_flat_in_run_length;
    Alcotest.test_case "world: an untraced run leaves the recorder's sequence at 0" `Quick
      recorder_silent_until_traced;
  ]

(* One world's handlers on several domains, in the [parallel] suite
   (test/main.ml). *)
let parallel =
  [
    Alcotest.test_case "shard_ping: parallel = sequential for any shards" `Quick
      shard_ping_parallel_equality;
  ]
