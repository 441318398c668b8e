type artifact = Table of Stats.Table.t | Series of Stats.Series.t | Note of string

type ctx = { domains : int; seeds : int }

let default_ctx () = { domains = Exec.Pool.default_domains (); seeds = 10 }

type t = { id : string; title : string; claim : string; run : ctx -> artifact list }

(* Independent runs of a sweep fan out over a domain pool; rows come back
   in case order, so tables are byte-identical for any domain count. *)
let sweep ~domains cases row =
  Exec.Pool.with_pool ~domains (fun pool -> Exec.Pool.map_list pool row cases)

let cell_opt_time = function None -> "-" | Some t -> Stats.Table.cell_time t

let oracle_default =
  Scenario.Oracle { detection_delay = 50; fp_per_edge = 2; fp_window = 8_000; fp_max_len = 200 }

let psync ~gst = Net.Delay.Partial_synchrony { gst; pre = (1, 100); post = (1, 8) }

let base : Scenario.t =
  {
    Scenario.default with
    name = "exp";
    delay = Net.Delay.Uniform (1, 8);
    detector = oracle_default;
    crashes = Scenario.No_crashes;
    check_every = Some 193;
  }

let inv_cell (r : World.report) = Option.value r.invariant_error ~default:"ok"

(* Messages sent to each of [dsts] up to and including each of [times],
   read by advancing [w] through the times in ascending order (staged
   advance equals one advance). The returned [cum ~dst t] is 0 for
   negative [t], so a window [\[a, b)] holds [cum (b - 1) - cum (a - 1)]. *)
let cum_sends_to w ~dsts ~times =
  let samples =
    List.map
      (fun t ->
        World.advance w ~until:t;
        (t, List.map (fun dst -> (dst, Net.Link_stats.total_sends_to (World.link_stats w) ~dst)) dsts))
      (List.sort_uniq compare (List.filter (fun t -> t >= 0) times))
  in
  fun ~dst t -> if t < 0 then 0 else List.assoc dst (List.assoc t samples)

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1: eventual weak exclusion.                            *)
(* ------------------------------------------------------------------ *)

let e1 (ctx : ctx) =
  let table =
    Stats.Table.create ~title:"E1: exclusion violations vs detector convergence (Theorem 1)"
      ~columns:
        [
          ("topology", Stats.Table.Left);
          ("detector", Stats.Table.Left);
          ("crashes", Stats.Table.Right);
          ("eats", Stats.Table.Right);
          ("conv", Stats.Table.Right);
          ("violations", Stats.Table.Right);
          ("last_viol", Stats.Table.Right);
          ("late_violations", Stats.Table.Right);
          ("invariants", Stats.Table.Left);
        ]
  in
  let topologies = [ Cgraph.Topology.Ring 12; Cgraph.Topology.Clique 8; Cgraph.Topology.Random_gnp (20, 0.2, 3L) ] in
  let detectors =
    [
      ("oracle+fp", oracle_default, Net.Delay.Uniform (1, 8));
      ("heartbeat", Scenario.default_heartbeat, psync ~gst:15_000);
    ]
  in
  let cases =
    List.concat_map (fun topology -> List.map (fun d -> (topology, d)) detectors) topologies
  in
  let row (topology, (det_label, detector, delay)) =
    let s =
      {
        base with
        name = "e1";
        topology;
        detector;
        delay;
        workload = { think = (0, 120); eat = (10, 40) };
        crashes = Scenario.Random_crashes { count = 2; from_t = 3_000; to_t = 12_000 };
        horizon = 60_000;
        seed = 11L;
      }
    in
    let r = World.run s in
    [
      Cgraph.Topology.name topology;
      det_label;
      Stats.Table.cell_int (List.length r.crashed);
      Stats.Table.cell_int r.total_eats;
      Stats.Table.cell_time r.convergence;
      Stats.Table.cell_int (Monitor.Exclusion.count r.exclusion);
      cell_opt_time (Monitor.Exclusion.last_violation_time r.exclusion);
      Stats.Table.cell_int (World.late_violations r);
      inv_cell r;
    ]
  in
  List.iter (Stats.Table.add_row table) (sweep ~domains:ctx.domains cases row);
  [
    Table table;
    Note
      "Expected shape: violations may occur, but the last one precedes detector \
       convergence and late_violations (after the settle cut) = 0 on every row.";
  ]

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 2: wait-freedom under crashes.                         *)
(* ------------------------------------------------------------------ *)

let e2 (_ : ctx) =
  let table =
    Stats.Table.create ~title:"E2: wait-freedom vs crash count (Theorem 2)"
      ~columns:
        [
          ("topology", Stats.Table.Left);
          ("f", Stats.Table.Right);
          ("daemon", Stats.Table.Left);
          ("served", Stats.Table.Right);
          ("starved", Stats.Table.Right);
          ("resp_mean", Stats.Table.Right);
          ("resp_p99", Stats.Table.Right);
          ("resp_max", Stats.Table.Right);
        ]
  in
  let daemons =
    [
      ("SP+oracle(evp)", Scenario.quiet_oracle);
      ("SP+never(ChoySingh)", Scenario.Never);
      ("SP+perfect", Scenario.Perfect);
    ]
  in
  let topologies = [ Cgraph.Topology.Ring 16; Cgraph.Topology.Clique 8 ] in
  List.iter
    (fun topology ->
      List.iter
        (fun f ->
          List.iter
            (fun (label, detector) ->
              let s =
                {
                  base with
                  name = "e2";
                  topology;
                  detector;
                  workload = { think = (20, 200); eat = (10, 40) };
                  crashes =
                    (if f = 0 then Scenario.No_crashes
                     else Scenario.Random_crashes { count = f; from_t = 4_000; to_t = 25_000 });
                  horizon = 80_000;
                  seed = 23L;
                }
              in
              let r = World.run s in
              let summary = Monitor.Response.summary r.response in
              Stats.Table.add_row table
                [
                  Cgraph.Topology.name topology;
                  Stats.Table.cell_int f;
                  label;
                  Stats.Table.cell_int (Monitor.Response.served_count r.response);
                  Stats.Table.cell_int (List.length (World.starved r));
                  Stats.Table.cell_float summary.mean;
                  Stats.Table.cell_float summary.p99;
                  Stats.Table.cell_float summary.max;
                ])
            daemons;
          Stats.Table.add_rule table)
        [ 0; 1; 2; 4; 8 ])
    topologies;
  [
    Table table;
    Note
      "Expected shape: SP+oracle and SP+perfect serve every hungry process (starved = 0) \
       for every f; SP+never starves processes as soon as f >= 1 (in a ring the blockage \
       cascades through deferred acks, so nearly everyone starves).";
  ]

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 3: eventual 2-bounded waiting.                         *)
(* ------------------------------------------------------------------ *)

let e3 (_ : ctx) =
  let table =
    Stats.Table.create ~title:"E3: consecutive overtaking (Theorem 3, k = 2)"
      ~columns:
        [
          ("daemon", Stats.Table.Left);
          ("topology", Stats.Table.Left);
          ("eats", Stats.Table.Right);
          ("max_overtakes", Stats.Table.Right);
          ("late_overtakes", Stats.Table.Right);
          ("bound_holds", Stats.Table.Left);
          ("starved", Stats.Table.Right);
        ]
  in
  let cases =
    [
      ("song-pike", Scenario.Song_pike, oracle_default);
      ("song-pike", Scenario.Song_pike, Scenario.quiet_oracle);
      ("fork-only", Scenario.Fork_only, Scenario.quiet_oracle);
    ]
  in
  let topologies = [ Cgraph.Topology.Clique 6; Cgraph.Topology.Star 8 ] in
  List.iter
    (fun topology ->
      List.iter
        (fun (label, algo, detector) ->
          let s =
            {
              base with
              name = "e3";
              topology;
              algo;
              detector;
              workload = Scenario.contended_workload;
              crashes = Scenario.Random_crashes { count = 1; from_t = 5_000; to_t = 15_000 };
              horizon = 60_000;
              seed = 37L;
            }
          in
          let r = World.run s in
          let late = World.late_overtakes r in
          Stats.Table.add_row table
            [
              label ^ "+" ^ Scenario.detector_name detector;
              Cgraph.Topology.name topology;
              Stats.Table.cell_int r.total_eats;
              Stats.Table.cell_int (Monitor.Fairness.max_consecutive r.fairness);
              Stats.Table.cell_int late;
              Stats.Table.cell_bool (late <= World.overtake_bound r);
              Stats.Table.cell_int (List.length (World.starved r));
            ])
        cases;
      Stats.Table.add_rule table)
    topologies;
  [
    Table table;
    Note
      "Expected shape: song-pike stays within the k = 2 bound after convergence under \
       maximum contention; fork-only (no doorway) overtakes without bound and starves \
       its lowest-priority diners.";
  ]

(* ------------------------------------------------------------------ *)
(* E4 — Section 7: channel capacity and message size.                  *)
(* ------------------------------------------------------------------ *)

let e4 (ctx : ctx) =
  let table =
    Stats.Table.create ~title:"E4: per-edge channel occupancy (Section 7 bound: 4)"
      ~columns:
        [
          ("topology", Stats.Table.Left);
          ("edges", Stats.Table.Right);
          ("msgs_sent", Stats.Table.Right);
          ("max_inflight", Stats.Table.Right);
          ("fork_wm", Stats.Table.Right);
          ("request_wm", Stats.Table.Right);
          ("ping_wm", Stats.Table.Right);
          ("ack_wm", Stats.Table.Right);
          ("msg_bits", Stats.Table.Right);
        ]
  in
  let row topology =
    let s =
      {
        base with
        name = "e4";
        topology;
        detector = oracle_default;
        workload = Scenario.contended_workload;
        crashes = Scenario.Random_crashes { count = 1; from_t = 2_000; to_t = 10_000 };
        horizon = 40_000;
        seed = 5L;
      }
    in
    let recorder = Obs.Recorder.create () in
    let by_kind = Net.Kind_watermarks.attach recorder in
    let r = World.run ~recorder s in
    let kind_wm kind =
      Option.value (List.assoc_opt kind (Net.Kind_watermarks.max_by_kind by_kind)) ~default:0
    in
    [
      Cgraph.Topology.name topology;
      Stats.Table.cell_int (Cgraph.Graph.edge_count r.graph);
      Stats.Table.cell_int (Net.Link_stats.total_sent r.link_stats);
      Stats.Table.cell_int (Net.Link_stats.max_edge_watermark r.link_stats);
      Stats.Table.cell_int (kind_wm "fork");
      Stats.Table.cell_int (kind_wm "request");
      Stats.Table.cell_int (kind_wm "ping");
      Stats.Table.cell_int (kind_wm "ack");
      (match r.max_message_bits with Some b -> Stats.Table.cell_int b | None -> "-");
    ]
  in
  List.iter (Stats.Table.add_row table)
    (sweep ~domains:ctx.domains Cgraph.Topology.all_small row);
  [
    Table table;
    Note
      "Expected shape: max_inflight <= 4 on every topology (1 fork + 1 token + 2 \
       ping/ack), fork and request watermarks <= 1, and O(log n)-bit messages.";
  ]

(* ------------------------------------------------------------------ *)
(* E5 — Section 7: quiescence w.r.t. crashed processes.                *)
(* ------------------------------------------------------------------ *)

let e5 (_ : ctx) =
  let crash_t = 10_000 in
  let horizon = 60_000 in
  let crashes = [ (2, crash_t); (5, crash_t + 4_000) ] in
  let s =
    {
      base with
      name = "e5";
      topology = Cgraph.Topology.Clique 8;
      detector = Scenario.quiet_oracle;
      workload = Scenario.contended_workload;
      crashes = Scenario.Crash_at crashes;
      horizon;
      seed = 71L;
    }
  in
  (* Post-crash windows [at + a, at + b), clipped to the horizon. *)
  let windows = [ (0, 2_000); (2_000, 8_000); (8_000, horizon) ] in
  let clip at (a, b) = (at + a, min horizon (at + b)) in
  let edges (_, at) =
    at :: List.concat_map (fun ab -> let a, b = clip at ab in [ a - 1; b - 1 ]) windows
  in
  let w = World.create s in
  let cum =
    cum_sends_to w ~dsts:(List.map fst crashes) ~times:(horizon :: List.concat_map edges crashes)
  in
  let r = World.report w in
  let table =
    Stats.Table.create ~title:"E5: messages sent to a crashed process (quiescence)"
      ~columns:
        [
          ("crashed_pid", Stats.Table.Right);
          ("crash_time", Stats.Table.Right);
          ("w[0,2k)", Stats.Table.Right);
          ("w[2k,8k)", Stats.Table.Right);
          ("w[8k,horizon]", Stats.Table.Right);
          ("last_send_to", Stats.Table.Right);
          ("per_nbr<=2", Stats.Table.Left);
        ]
  in
  List.iter
    (fun (pid, at) ->
      let in_window ab =
        let a, b = clip at ab in
        Stats.Table.cell_int (cum ~dst:pid (b - 1) - cum ~dst:pid (a - 1))
      in
      let after_crash = cum ~dst:pid horizon - cum ~dst:pid at in
      let degree = Cgraph.Graph.degree r.graph pid in
      Stats.Table.add_row table
        ([ Stats.Table.cell_int pid; Stats.Table.cell_time at ]
        @ List.map in_window windows
        @ [
            (match Net.Link_stats.last_send_to r.link_stats pid with
            | Some t -> Stats.Table.cell_time t
            | None -> "-");
            Stats.Table.cell_bool (after_crash <= 2 * degree);
          ]))
    r.crashed;
  [
    Table table;
    Note
      "Expected shape: traffic to a crashed process stops shortly after the crash — at \
       most one pending ping and one token per neighbor (<= 2 * degree messages), then \
       silence; the final window is 0.";
  ]

(* ------------------------------------------------------------------ *)
(* E6 — Section 7: bounded local memory.                               *)
(* ------------------------------------------------------------------ *)

let e6 (_ : ctx) =
  let table =
    Stats.Table.create ~title:"E6: local state footprint (Section 7: log2(delta) + 6*delta + c)"
      ~columns:
        [
          ("topology", Stats.Table.Left);
          ("n", Stats.Table.Right);
          ("delta", Stats.Table.Right);
          ("measured_bits", Stats.Table.Right);
          ("formula_bits", Stats.Table.Right);
          ("matches", Stats.Table.Left);
        ]
  in
  List.iter
    (fun topology ->
      let s = { base with name = "e6"; topology; horizon = 5_000; seed = 3L } in
      let r = World.run s in
      let delta = Cgraph.Graph.max_degree r.graph in
      let colors = Cgraph.Coloring.greedy r.graph in
      let max_color = Array.fold_left max 0 colors in
      let rec bits acc v = if v <= 0 then max acc 1 else bits (acc + 1) (v lsr 1) in
      let formula = 3 + bits 0 max_color + (6 * delta) in
      let measured = Option.value r.max_footprint_bits ~default:0 in
      Stats.Table.add_row table
        [
          Cgraph.Topology.name topology;
          Stats.Table.cell_int (Cgraph.Graph.n r.graph);
          Stats.Table.cell_int delta;
          Stats.Table.cell_int measured;
          Stats.Table.cell_int formula;
          Stats.Table.cell_bool (measured <= formula);
        ])
    Cgraph.Topology.all_small;
  [
    Table table;
    Note "Expected shape: measured footprint equals the closed form on every topology.";
  ]

(* ------------------------------------------------------------------ *)
(* E7 — Sections 1-2: wait-free daemons enable stabilization.          *)
(* ------------------------------------------------------------------ *)

let e7 (_ : ctx) =
  let table =
    Stats.Table.create
      ~title:"E7: self-stabilization under the daemon (crashes + transient faults)"
      ~columns:
        [
          ("protocol", Stats.Table.Left);
          ("topology", Stats.Table.Left);
          ("crashes", Stats.Table.Right);
          ("daemon", Stats.Table.Left);
          ("converged", Stats.Table.Left);
          ("converged_at", Stats.Table.Right);
          ("final_err", Stats.Table.Right);
          ("steps", Stats.Table.Right);
          ("cs_races", Stats.Table.Right);
        ]
  in
  let cases =
    [
      (Run_stabilize.Coloring, Cgraph.Topology.Random_gnp (16, 0.25, 5L), 2);
      (Run_stabilize.Coloring, Cgraph.Topology.Torus (3, 4), 2);
      (Run_stabilize.Bfs_tree, Cgraph.Topology.Random_gnp (16, 0.25, 5L), 2);
      (Run_stabilize.Matching, Cgraph.Topology.Ring 12, 0);
      (Run_stabilize.Token_ring, Cgraph.Topology.Ring 10, 0);
    ]
  in
  List.iter
    (fun (protocol, topology, crash_count) ->
      List.iter
        (fun (label, detector) ->
          let spec =
            {
              Run_stabilize.protocol;
              transient_faults = [ (15_000, 4); (25_000, 4) ];
              scenario =
                {
                  base with
                  name = "e7";
                  topology;
                  detector;
                  crashes =
                    (if crash_count = 0 then Scenario.No_crashes
                     else Scenario.Random_crashes { count = crash_count; from_t = 2_000; to_t = 8_000 });
                  horizon = 60_000;
                  seed = 19L;
                };
            }
          in
          let r = Run_stabilize.run spec in
          Stats.Table.add_row table
            [
              Run_stabilize.protocol_name protocol;
              Cgraph.Topology.name topology;
              Stats.Table.cell_int (List.length r.crashed);
              label;
              Stats.Table.cell_bool (r.outcome.converged_at <> None);
              cell_opt_time r.outcome.converged_at;
              Stats.Table.cell_int r.outcome.final_error;
              Stats.Table.cell_int r.outcome.steps_executed;
              Stats.Table.cell_int r.outcome.overlap_races;
            ])
        [ ("SP+oracle(evp)", oracle_default); ("SP+never(ChoySingh)", Scenario.Never) ];
      Stats.Table.add_rule table)
    cases;
  [
    Table table;
    Note
      "Expected shape: with the wait-free oracle daemon every protocol converges after \
       the last transient fault, even with crashes; the crash-intolerant daemon fails to \
       converge exactly in the rows with crashes > 0.";
  ]

(* ------------------------------------------------------------------ *)
(* E8 — ablation: what the doorway costs and buys.                     *)
(* ------------------------------------------------------------------ *)

let e8 (_ : ctx) =
  let table =
    Stats.Table.create ~title:"E8: daemon comparison, crash-free saturation (ablation)"
      ~columns:
        [
          ("daemon", Stats.Table.Left);
          ("topology", Stats.Table.Left);
          ("eats/ktick", Stats.Table.Right);
          ("resp_mean", Stats.Table.Right);
          ("resp_p99", Stats.Table.Right);
          ("max_overtakes", Stats.Table.Right);
          ("starved", Stats.Table.Right);
        ]
  in
  let cases =
    [
      ("song-pike+oracle", Scenario.Song_pike, Scenario.quiet_oracle);
      ("choy-singh (never)", Scenario.Song_pike, Scenario.Never);
      ("fork-only+oracle", Scenario.Fork_only, Scenario.quiet_oracle);
      ("chandy-misra", Scenario.Chandy_misra, Scenario.Never);
      ("ordered (Lynch)", Scenario.Ordered, Scenario.Never);
    ]
  in
  List.iter
    (fun topology ->
      List.iter
        (fun (label, algo, detector) ->
          let s =
            {
              base with
              name = "e8";
              topology;
              algo;
              detector;
              workload = Scenario.contended_workload;
              crashes = Scenario.No_crashes;
              horizon = 60_000;
              seed = 13L;
            }
          in
          let r = World.run s in
          let summary = Monitor.Response.summary r.response in
          Stats.Table.add_row table
            [
              label;
              Cgraph.Topology.name topology;
              Stats.Table.cell_float (World.throughput r);
              Stats.Table.cell_float summary.mean;
              Stats.Table.cell_float summary.p99;
              Stats.Table.cell_int (Monitor.Fairness.max_consecutive r.fairness);
              Stats.Table.cell_int (List.length (World.starved r));
            ])
        cases;
      Stats.Table.add_rule table)
    [ Cgraph.Topology.Clique 6; Cgraph.Topology.Ring 12; Cgraph.Topology.Grid (3, 4) ];
  [
    Table table;
    Note
      "Expected shape: fork-only posts the highest raw throughput but unbounded \
       overtaking (and starvation under saturation); song-pike pays a modest throughput \
       cost for its fairness bound; chandy-misra sits between them with dynamic \
       priorities; the hierarchical total-order scheme is deadlock-free but pays long \
       waiting chains on path-heavy graphs; crash-free choy-singh behaves like \
       song-pike.";
  ]

(* ------------------------------------------------------------------ *)
(* E9 — necessity: each half of the ◇P contract is load-bearing.       *)
(* ------------------------------------------------------------------ *)

let e9 (_ : ctx) =
  let horizon = 60_000 in
  let table =
    Stats.Table.create
      ~title:"E9: what breaks when a ◇P property is dropped (necessity ablation)"
      ~columns:
        [
          ("detector", Stats.Table.Left);
          ("complete", Stats.Table.Left);
          ("ev_accurate", Stats.Table.Left);
          ("served", Stats.Table.Right);
          ("starved", Stats.Table.Right);
          ("violations", Stats.Table.Right);
          ("late_violations", Stats.Table.Right);
          ("verdict", Stats.Table.Left);
        ]
  in
  let cases =
    [
      ("oracle (full evp-P1)", "yes", "yes", oracle_default);
      ( "unreliable (accuracy dropped)",
        "yes",
        "no",
        Scenario.Unreliable { period = 1_500; duration = 150 } );
      ("never (completeness dropped)", "no", "yes", Scenario.Never);
    ]
  in
  List.iter
    (fun (label, complete, accurate, detector) ->
      let s =
        {
          base with
          name = "e9";
          topology = Cgraph.Topology.Clique 6;
          detector;
          workload = { think = (0, 60); eat = (10, 40) };
          crashes = Scenario.Crash_at [ (1, 8_000) ];
          horizon;
          seed = 101L;
        }
      in
      let r = World.run s in
      let starved = List.length (World.starved r) in
      let late = World.late_violations r in
      let verdict =
        match (starved > 0, late > 0) with
        | false, false -> "wait-free + eventually safe"
        | false, true -> "wait-free, NEVER safe"
        | true, false -> "safe, NOT wait-free"
        | true, true -> "neither"
      in
      Stats.Table.add_row table
        [
          label;
          complete;
          accurate;
          Stats.Table.cell_int (Monitor.Response.served_count r.response);
          Stats.Table.cell_int starved;
          Stats.Table.cell_int (Monitor.Exclusion.count r.exclusion);
          Stats.Table.cell_int late;
          verdict;
        ])
    cases;
  [
    Table table;
    Note
      "Expected shape: dropping eventual accuracy keeps wait-freedom but scheduling \
       mistakes recur forever (◇WX fails); dropping completeness keeps safety but \
       starves (wait-freedom fails). Both halves of ◇P are load-bearing — the empirical \
       face of the weakest-failure-detector result the paper cites ([21]).";
  ]

(* ------------------------------------------------------------------ *)
(* E10 — every bound, across independent seeds (batch robustness).     *)
(* ------------------------------------------------------------------ *)

let e10 (ctx : ctx) =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E10: all four bounds over %d independent seeds per row (Theorems 1-3, Section 7)"
           ctx.seeds)
      ~columns:
        [
          ("topology", Stats.Table.Left);
          ("detector", Stats.Table.Left);
          ("runs", Stats.Table.Right);
          ("eats/run", Stats.Table.Right);
          ("viol/run", Stats.Table.Right);
          ("late_violations", Stats.Table.Right);
          ("max_overtakes", Stats.Table.Right);
          ("starved", Stats.Table.Right);
          ("watermark", Stats.Table.Right);
          ("all_bounds", Stats.Table.Left);
        ]
  in
  let cases =
    [
      (Cgraph.Topology.Ring 10, "oracle+fp", oracle_default);
      (Cgraph.Topology.Clique 6, "oracle+fp", oracle_default);
      (Cgraph.Topology.Random_gnp (16, 0.25, 21L), "oracle+fp", oracle_default);
      (Cgraph.Topology.Clique 6, "heartbeat", Scenario.default_heartbeat);
    ]
  in
  List.iter
    (fun (topology, det_label, detector) ->
      let scenario =
        {
          base with
          name = "e10";
          topology;
          detector;
          delay =
            (match detector with
            | Scenario.Heartbeat _ -> psync ~gst:12_000
            | _ -> base.delay);
          workload = { think = (0, 100); eat = (5, 30) };
          crashes = Scenario.Random_crashes { count = 2; from_t = 2_000; to_t = 12_000 };
          horizon = 50_000;
          check_every = Some 251;
        }
      in
      let a = Batch.run ~seeds:ctx.seeds ~domains:ctx.domains scenario in
      let ok =
        a.late_violations_total = 0 && a.max_late_overtakes <= a.overtake_bound
        && a.starved_total = 0 && a.worst_edge_watermark <= 4 && a.invariant_errors = []
      in
      Stats.Table.add_row table
        [
          Cgraph.Topology.name topology;
          det_label;
          Stats.Table.cell_int a.runs;
          Printf.sprintf "%.0f±%.0f" a.total_eats.mean a.total_eats.stddev;
          Stats.Table.cell_float a.violations.mean;
          Stats.Table.cell_int a.late_violations_total;
          Stats.Table.cell_int a.max_late_overtakes;
          Stats.Table.cell_int a.starved_total;
          Stats.Table.cell_int a.worst_edge_watermark;
          Stats.Table.cell_bool ok;
        ])
    cases;
  [
    Table table;
    Note
      (Printf.sprintf
         "Every row aggregates %d independent seeds (%d full runs in total, fanned out \
          over %d domain(s); the aggregate is bit-identical for any domain count). The \
          paper's claims are per-run universals, so the aggregated columns must be \
          exactly 0 / <= 2 / 0 / <= 4 — not merely on average."
         ctx.seeds (4 * ctx.seeds) ctx.domains);
  ]

(* ------------------------------------------------------------------ *)
(* E11 — extension: the ack budget as a fairness knob.                 *)
(* ------------------------------------------------------------------ *)

(* Adversarial rig for the ack budget: a path  overtaker(0) - victim(1) -
   blocker(2).  The blocker holds the doorway for very long eating
   sessions, which pins the victim hungry *outside* the doorway (its ping
   to the blocker is deferred); meanwhile the fast-cycling overtaker needs
   only the victim's ack to enter, and the victim — hungry outside — keeps
   granting until its per-session budget m runs out. The overtake count
   per victim session is therefore governed exactly by m. *)
let e11_run ~m ~horizon =
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let colors = [| 1; 0; 2 |] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:3 in
  let _, detector = Fd.Oracle.create engine faults graph ~detection_delay:50 () in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 2)
      ~rng:(Sim.Rng.create 3L) ~detector ~colors ~acks_per_session:m ()
  in
  let inst = Dining.Algorithm.instance algo in
  let fairness = Monitor.Fairness.attach engine graph faults inst in
  (* Per-role drivers: eat duration and re-hungry delay per pid. *)
  let eat_for = [| 5; 5; 4_000 |] and rest_for = [| 3; 3; 200 |] in
  let stop_eating = Sim.Engine.register engine (fun pid _ _ -> inst.stop_eating pid) in
  let become_hungry = Sim.Engine.register engine (fun pid _ _ -> inst.become_hungry pid) in
  let after kind pid delay =
    Sim.Engine.post engine ~kind ~owner:pid ~at:(Sim.Time.add (Sim.Engine.now engine) delay) 0 0
  in
  inst.add_listener (fun pid phase ->
      match phase with
      | Dining.Types.Eating -> after stop_eating pid eat_for.(pid)
      | Dining.Types.Thinking -> after become_hungry pid rest_for.(pid)
      | Dining.Types.Hungry -> ());
  List.iter inst.become_hungry [ 2; 0; 1 ];
  Sim.Engine.run engine ~until:horizon;
  ( Monitor.Fairness.max_consecutive fairness,
    Dining.Algorithm.eat_count algo 0,
    Dining.Algorithm.eat_count algo 1 )

let e11 (_ : ctx) =
  let table =
    Stats.Table.create
      ~title:
        "E11: generalised doorway — m acks/session yields eventual (m+1)-bounded waiting"
      ~columns:
        [
          ("m (ack budget)", Stats.Table.Right);
          ("predicted k = m+1", Stats.Table.Right);
          ("max consecutive overtakes", Stats.Table.Right);
          ("within k", Stats.Table.Left);
          ("overtaker eats", Stats.Table.Right);
          ("victim eats", Stats.Table.Right);
        ]
  in
  List.iter
    (fun m ->
      let overtakes, o_eats, v_eats = e11_run ~m ~horizon:60_000 in
      Stats.Table.add_row table
        [
          Stats.Table.cell_int m;
          Stats.Table.cell_int (m + 1);
          Stats.Table.cell_int overtakes;
          Stats.Table.cell_bool (overtakes <= m + 1);
          Stats.Table.cell_int o_eats;
          Stats.Table.cell_int v_eats;
        ])
    [ 1; 2; 4; 8 ];
  [
    Table table;
    Note
      "Extension beyond the paper: Algorithm 1 grants one doorway ack per neighbor per \
       hungry session (m = 1, giving the paper's k = 2 of Theorem 3). Generalising the \
       budget to m preserves safety, wait-freedom and all structural lemmas (the ack \
       pipeline is untouched) and relaxes fairness to eventual (m+1)-bounded waiting. \
       The adversarial blocker/overtaker path makes the bound tight: measured maximum \
       overtaking rises with m and never exceeds m + 1, while the victim's share of \
       meals shrinks — the quantitative price of a weaker k.";
  ]

(* ------------------------------------------------------------------ *)
(* E12 — where the waiting time goes: doorway vs fork collection.      *)
(* ------------------------------------------------------------------ *)

let e12 (_ : ctx) =
  let table =
    Stats.Table.create
      ~title:"E12: hungry-session latency split into phase 1 (doorway) and phase 2 (forks)"
      ~columns:
        [
          ("topology", Stats.Table.Left);
          ("sessions", Stats.Table.Right);
          ("doorway_mean", Stats.Table.Right);
          ("doorway_p95", Stats.Table.Right);
          ("fork_mean", Stats.Table.Right);
          ("fork_p95", Stats.Table.Right);
          ("doorway_share", Stats.Table.Right);
        ]
  in
  List.iter
    (fun topology ->
      let s =
        {
          base with
          name = "e12";
          topology;
          detector = Scenario.quiet_oracle;
          workload = Scenario.contended_workload;
          crashes = Scenario.No_crashes;
          horizon = 40_000;
          seed = 59L;
        }
      in
      let r = World.run s in
      let d = Monitor.Response.doorway_summary r.response in
      let f = Monitor.Response.fork_summary r.response in
      let share =
        if d.mean +. f.mean > 0.0 then 100.0 *. d.mean /. (d.mean +. f.mean) else 0.0
      in
      Stats.Table.add_row table
        [
          Cgraph.Topology.name topology;
          Stats.Table.cell_int d.count;
          Stats.Table.cell_float d.mean;
          Stats.Table.cell_float d.p95;
          Stats.Table.cell_float f.mean;
          Stats.Table.cell_float f.p95;
          Stats.Table.cell_float share ^ "%";
        ])
    [
      Cgraph.Topology.Ring 12;
      Cgraph.Topology.Clique 6;
      Cgraph.Topology.Star 8;
      Cgraph.Topology.Grid (3, 4);
      Cgraph.Topology.Binary_tree 10;
    ];
  [
    Table table;
    Note
      "Analysis beyond the paper's proofs: under saturation most of a hungry session is \
       spent in phase 1 (waiting to enter the doorway — i.e. waiting for neighbors to \
       finish whole sessions), while fork collection inside the doorway is quick because \
       the doorway has already serialised the neighborhood. The doorway is therefore \
       both the fairness mechanism and the main queueing point.";
  ]

(* ------------------------------------------------------------------ *)
(* F5 — scaling: response latency and throughput vs n.                 *)
(* ------------------------------------------------------------------ *)

let f5 (ctx : ctx) =
  let sizes = [ 8; 16; 32; 64; 128 ] in
  let series =
    Stats.Series.create ~title:"F5: p95 response vs ring size (1 crash, evp-P1)"
      ~x_label:"n (ring size)" ~y_label:"p95 response (ticks)"
  in
  let point n =
    let s =
      {
        base with
        name = "f5";
        topology = Cgraph.Topology.Ring n;
        detector = Scenario.quiet_oracle;
        workload = { think = (10, 100); eat = (5, 25) };
        crashes = Scenario.Crash_at [ (n / 2, 5_000) ];
        horizon = 40_000;
        seed = 77L;
        check_every = None;
      }
    in
    let r = World.run s in
    let summary = Monitor.Response.summary r.response in
    (float_of_int n, summary.p95, World.throughput r)
  in
  let points = sweep ~domains:ctx.domains sizes point in
  List.iter (fun (x, p95, _) -> Stats.Series.add_point series ~x ~y:p95) points;
  Stats.Series.add_series series ~name:"eats per ktick"
    (List.map (fun (x, _, tp) -> (x, tp)) points);
  [
    Series series;
    Note
      "Expected shape: per-diner response latency is flat in n (contention is local — \
       only neighbors matter), so throughput grows linearly with ring size. This is the \
       practical content of using the locally scope-restricted detector evp-P1: the \
       daemon scales to larger networks.";
  ]

(* ------------------------------------------------------------------ *)
(* F1 — response time across detector convergence (GST).               *)
(* ------------------------------------------------------------------ *)

let f1 (_ : ctx) =
  let gst = 30_000 in
  let s =
    {
      base with
      name = "f1";
      topology = Cgraph.Topology.Clique 6;
      delay = psync ~gst;
      detector = Scenario.default_heartbeat;
      workload = { think = (0, 60); eat = (10, 40) };
      crashes = Scenario.Crash_at [ (1, 12_000) ];
      horizon = 80_000;
      seed = 29L;
    }
  in
  let w = World.create s in
  let response_series = Monitor.Response.response_series (World.response w) ~bucket:2_000 in
  World.advance w ~until:s.horizon;
  let r = World.report w in
  let series =
    Stats.Series.create ~title:"F1: mean response time vs service time (GST = 30000)"
      ~x_label:"time (ticks)" ~y_label:"mean response (ticks)"
  in
  List.iter (fun (x, y) -> Stats.Series.add_point series ~x ~y) (response_series ());
  [
    Series series;
    Note
      (Printf.sprintf
         "Heartbeat detector: %d false suspicions, last at %s. Expected shape: noisy \
          response before GST while suspicions churn, settling to a tight band after \
          the adaptive timeouts exceed the post-GST delay bound."
         r.detector_mistakes (Stats.Table.cell_time r.convergence));
  ]

(* ------------------------------------------------------------------ *)
(* F2 — quiescence curve.                                              *)
(* ------------------------------------------------------------------ *)

let f2 (_ : ctx) =
  let crash_t = 10_000 in
  let s =
    {
      base with
      name = "f2";
      topology = Cgraph.Topology.Clique 8;
      detector = Scenario.quiet_oracle;
      workload = Scenario.contended_workload;
      crashes = Scenario.Crash_at [ (3, crash_t) ];
      horizon = 40_000;
      seed = 41L;
    }
  in
  let series =
    Stats.Series.create
      ~title:(Printf.sprintf "F2: messages to the crashed process (crash at %d)" crash_t)
      ~x_label:"time (ticks)" ~y_label:"msgs to crashed / 1k window"
  in
  let window = 1_000 in
  let starts = List.init (s.horizon / window) (fun k -> k * window) in
  let cum =
    cum_sends_to (World.create s) ~dsts:[ 3 ] ~times:(List.map (fun t -> t + window - 1) starts)
  in
  List.iter
    (fun t ->
      let count = cum ~dst:3 (t + window - 1) - cum ~dst:3 (t - 1) in
      Stats.Series.add_point series ~x:(float_of_int t) ~y:(float_of_int count))
    starts;
  [
    Series series;
    Note
      "Expected shape: steady traffic while live, a final burst of pings/tokens right \
       after the crash, then permanently zero — quiescence.";
  ]

(* ------------------------------------------------------------------ *)
(* F3 — the overtake bound engages after convergence.                  *)
(* ------------------------------------------------------------------ *)

let f3 (_ : ctx) =
  let s =
    {
      base with
      name = "f3";
      topology = Cgraph.Topology.Clique 6;
      detector =
        Scenario.Oracle { detection_delay = 50; fp_per_edge = 6; fp_window = 20_000; fp_max_len = 400 };
      workload = Scenario.contended_workload;
      crashes = Scenario.No_crashes;
      horizon = 60_000;
      seed = 53L;
    }
  in
  let w = World.create s in
  let windowed_max =
    Monitor.Fairness.windowed_max (World.fairness w) ~window:2_000 ~horizon:s.horizon
  in
  World.advance w ~until:s.horizon;
  let r = World.report w in
  let series =
    Stats.Series.create
      ~title:
        (Printf.sprintf "F3: max consecutive overtakes per window (conv = %d)" r.convergence)
      ~x_label:"time (ticks)" ~y_label:"max overtakes / 2k window"
  in
  List.iter (fun (x, y) -> Stats.Series.add_point series ~x ~y) (windowed_max ());
  [
    Series series;
    Note
      "Expected shape: occasional spikes above 2 while the scripted oracle still lies \
       (suspicions let diners bypass the doorway); after convergence the curve stays <= 2 \
       forever (Theorem 3).";
  ]

(* ------------------------------------------------------------------ *)
(* F4 — stabilization convergence under the daemon.                    *)
(* ------------------------------------------------------------------ *)

let f4 (_ : ctx) =
  let spec =
    {
      Run_stabilize.protocol = Run_stabilize.Coloring;
      transient_faults = [ (20_000, 5); (32_000, 5) ];
      scenario =
        {
          base with
          name = "f4";
          topology = Cgraph.Topology.Random_gnp (16, 0.25, 5L);
          detector = oracle_default;
          crashes = Scenario.Crash_at [ (2, 6_000); (9, 9_000) ];
          horizon = 50_000;
          seed = 61L;
        };
    }
  in
  let r = Run_stabilize.run spec in
  let series =
    Stats.Series.create ~title:"F4: stabilizing coloring error under the wait-free daemon"
      ~x_label:"time (ticks)" ~y_label:"conflict edges"
  in
  List.iter (fun (x, y) -> Stats.Series.add_point series ~x ~y) r.outcome.error_series;
  [
    Series series;
    Note
      (Printf.sprintf
         "Transient faults at 20000 and 32000 appear as spikes; crashes at 6000/9000 do \
          not prevent re-convergence (converged_at = %s). A non-wait-free daemon would \
          flatline at a positive error after the first crash."
         (cell_opt_time r.outcome.converged_at));
  ]

(* ------------------------------------------------------------------ *)
(* F6 — failure locality: how far from a crash starvation spreads.     *)
(* ------------------------------------------------------------------ *)

let f6 (_ : ctx) =
  let crash_pid = 16 and crash_t = 5_000 in
  let horizon = 60_000 in
  let windows = horizon / 2_000 in
  (* A process is starving at time t if some hungry session of its has
     been open for at least [World.patience] (Theorem 2's threshold) at
     t. The starvation radius at t is the greatest conflict-graph
     distance from the crash site of any starving process (0 = nobody
     starves). Served sessions are collected during the run and, with
     the sessions still open at the horizon, folded in after it. *)
  let radius_series detector =
    let s =
      {
        base with
        name = "f6";
        topology = Cgraph.Topology.Ring 32;
        detector;
        workload = { think = (10, 80); eat = (5, 25) };
        crashes = Scenario.Crash_at [ (crash_pid, crash_t) ];
        horizon;
        seed = 83L;
      }
    in
    let w = World.create s in
    let dists = Cgraph.Graph.distances_from (World.graph w) crash_pid in
    let served = ref [] in
    Monitor.Response.on_served (World.response w) (fun pid started ended ->
        served := (pid, started, ended) :: !served);
    World.advance w ~until:horizon;
    let r = World.report w in
    let radius = Array.make windows 0 in
    let starving (pid, started, ended) =
      if pid <> crash_pid then begin
        let starving_from = started + World.patience r in
        for i = 0 to windows - 1 do
          let t = i * 2_000 in
          if starving_from <= t && t < ended then radius.(i) <- max radius.(i) dists.(pid)
        done
      end
    in
    List.iter starving !served;
    List.iter
      (fun (pid, started) -> starving (pid, started, max_int))
      (Monitor.Response.open_sessions r.response);
    List.init windows (fun i -> (float_of_int (i * 2_000), float_of_int radius.(i)))
  in
  let ours = radius_series Scenario.quiet_oracle in
  let baseline = radius_series Scenario.Never in
  let series =
    Stats.Series.create
      ~title:
        (Printf.sprintf "F6: starvation radius around a crash (ring-32, crash p%d@%d)"
           crash_pid crash_t)
      ~x_label:"time (ticks)" ~y_label:"radius, song-pike+evp-P1"
  in
  List.iter (fun (x, y) -> Stats.Series.add_point series ~x ~y) ours;
  Stats.Series.add_series series ~name:"radius, choy-singh (never)" baseline;
  [
    Series series;
    Note
      "Failure locality (the metric of the paper's Choy-Singh/Pike-Sivilotti lineage): \
       with evp-P1 the crash never starves anyone (radius pinned at 0 after the \
       detection delay) — failure locality 0 in steady state. Without crash detection \
       the starvation wave expands monotonically from the crash site until it wraps the \
       whole ring (radius 16 = the ring's diameter): failure locality is unbounded, \
       which is exactly why stabilization cannot be scheduled by such a daemon.";
  ]

(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "e1"; title = "Eventual weak exclusion"; claim = "Theorem 1"; run = e1 };
    { id = "e2"; title = "Wait-freedom under crashes"; claim = "Theorem 2"; run = e2 };
    { id = "e3"; title = "Eventual 2-bounded waiting"; claim = "Theorem 3"; run = e3 };
    { id = "e4"; title = "Channel capacity <= 4"; claim = "Section 7"; run = e4 };
    { id = "e5"; title = "Quiescence toward crashed processes"; claim = "Section 7"; run = e5 };
    { id = "e6"; title = "Bounded local memory"; claim = "Section 7"; run = e6 };
    { id = "e7"; title = "Stabilization needs wait-freedom"; claim = "Sections 1-2"; run = e7 };
    { id = "e8"; title = "Doorway ablation"; claim = "design analysis"; run = e8 };
    { id = "e9"; title = "Necessity of each ◇P property"; claim = "Conclusion / [21]"; run = e9 };
    { id = "e10"; title = "All bounds across 10 seeds"; claim = "Theorems 1-3, Section 7"; run = e10 };
    { id = "e11"; title = "Ack-budget fairness knob"; claim = "extension of Theorem 3"; run = e11 };
    { id = "e12"; title = "Doorway vs fork wait breakdown"; claim = "design analysis"; run = e12 };
    { id = "f1"; title = "Response time across GST"; claim = "Theorems 1-2"; run = f1 };
    { id = "f2"; title = "Quiescence curve"; claim = "Section 7"; run = f2 };
    { id = "f3"; title = "Overtake bound after convergence"; claim = "Theorem 3"; run = f3 };
    { id = "f4"; title = "Stabilization error curve"; claim = "Sections 1-2"; run = f4 };
    { id = "f5"; title = "Scalability in n (local oracle)"; claim = "Conclusion"; run = f5 };
    { id = "f6"; title = "Failure locality of a crash"; claim = "lineage of [8]/[20]"; run = f6 };
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> e.id = id) all

(* Report emission goes through a formatter so library code never writes
   to stdout directly; executables pass the sink (default std_formatter).
   Each artifact is flushed eagerly so output interleaves correctly with
   any direct channel writes the caller makes around us. *)
let print_artifact ?(ppf = Format.std_formatter) artifact =
  (match artifact with
  | Table t -> Stats.Table.pp ppf t
  | Series s -> Stats.Series.pp ppf s
  | Note n -> Format.fprintf ppf "note: %s\n\n" n);
  Format.pp_print_flush ppf ()

let run_and_print ?ctx ?(ppf = Format.std_formatter) e =
  let ctx = match ctx with Some c -> c | None -> default_ctx () in
  Format.fprintf ppf "### %s — %s (reproduces: %s)\n\n" (String.uppercase_ascii e.id)
    e.title e.claim;
  List.iter (print_artifact ~ppf) (e.run ctx);
  Format.pp_print_flush ppf ()
