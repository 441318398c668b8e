(* Benchmark harness.

   Two halves:
   - the reproduction suite: one table/figure per paper claim plus the
     extensions (E1..E12, F1..F5), the exhaustive model-checking runs
     (MC) and the fuzzing-campaign summaries (FZ), regenerated
     deterministically — run with no arguments, or pass ids to select;
   - Bechamel microbenchmarks ("perf") measuring the substrate and the
     algorithm itself, one Test.make per benchmark. *)

open Bechamel
open Toolkit

(* A table to stdout, flushed so it stays ordered with Printf output. *)
let print_table t = Format.printf "%a@?" Stats.Table.pp t

let scenario_bench name scenario =
  Test.make ~name (Staged.stage (fun () -> ignore (Harness.World.run scenario)))

let short (topology : Cgraph.Topology.spec) algo detector : Harness.Scenario.t =
  {
    Harness.Scenario.default with
    name = "bench";
    topology;
    algo;
    detector;
    workload = Harness.Scenario.default_workload;
    crashes = Harness.Scenario.No_crashes;
    horizon = 4_000;
    check_every = None;
    seed = 9L;
  }

let perf_tests () =
  [
    Test.make ~name:"engine:100k-events"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           let count = ref 0 in
           let rec tick () =
             incr count;
             if !count < 100_000 then Sim.Engine.schedule_after engine ~delay:1 tick
           in
           Sim.Engine.schedule engine ~at:0 tick;
           Sim.Engine.run_all engine));
    Test.make ~name:"wheel:10k-mixed"
      (Staged.stage (fun () ->
           let q = Sim.Wheel.create () in
           for i = 0 to 9_999 do
             Sim.Wheel.add q ~prio:((i * 7919) mod 1000) i
           done;
           while not (Sim.Wheel.is_empty q) do
             ignore (Sim.Wheel.pop_until q max_int : int)
           done));
    Test.make ~name:"rng:100k-draws"
      (Staged.stage (fun () ->
           let rng = Sim.Rng.create 7L in
           for _ = 1 to 100_000 do
             ignore (Sim.Rng.int rng 1000)
           done));
    scenario_bench "dining:ring-32"
      (short (Cgraph.Topology.Ring 32) Harness.Scenario.Song_pike
         Harness.Scenario.quiet_oracle);
    scenario_bench "dining:clique-8-contended"
      {
        (short (Cgraph.Topology.Clique 8) Harness.Scenario.Song_pike
           Harness.Scenario.quiet_oracle)
        with
        workload = Harness.Scenario.contended_workload;
      };
    scenario_bench "dining:ring-32-heartbeat"
      (short (Cgraph.Topology.Ring 32) Harness.Scenario.Song_pike
         Harness.Scenario.default_heartbeat);
    scenario_bench "baseline:chandy-misra-ring-32"
      (short (Cgraph.Topology.Ring 32) Harness.Scenario.Chandy_misra Harness.Scenario.Never);
    Test.make ~name:"mcheck:pair-2sessions"
      (Staged.stage (fun () ->
           let graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
           ignore
             (Mcheck.Frontier.explore
                {
                  Mcheck.Model.graph;
                  colors = [| 0; 1 |];
                  sessions = 2;
                  crash_budget = 0;
                  fp_budget = 0;
                })));
  ]

let run_perf () =
  print_endline "### PERF — Bechamel microbenchmarks (OLS on the monotonic clock)\n";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) ~stabilize:false () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"perf" ~fmt:"%s %s" (perf_tests ()))
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Stats.Table.create ~title:"PERF: wall-clock per run"
      ~columns:
        [ ("benchmark", Stats.Table.Left); ("time/run", Stats.Table.Right); ("r^2", Stats.Table.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter (fun name est -> rows := (name, est) :: !rows) results;
  List.iter
    (fun (name, est) ->
      let ns = match Analyze.OLS.estimates est with Some [ e ] -> e | _ -> Float.nan in
      let pretty =
        if Float.is_nan ns then "-"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      let r2 =
        match Analyze.OLS.r_square est with Some r -> Printf.sprintf "%.3f" r | None -> "-"
      in
      Stats.Table.add_row table [ name; pretty; r2 ])
    (List.sort compare !rows);
  print_table table

let run_mc () =
  print_endline
    "### MC — exhaustive model checking of Algorithm 1 (Lemmas 1.1/1.2/2.2, capacity, exclusion)\n";
  let table =
    Stats.Table.create ~title:"MC: explicit-state exploration"
      ~columns:
        [
          ("instance", Stats.Table.Left);
          ("sessions", Stats.Table.Right);
          ("crashes", Stats.Table.Right);
          ("fp", Stats.Table.Right);
          ("states", Stats.Table.Right);
          ("transitions", Stats.Table.Right);
          ("complete", Stats.Table.Left);
          ("deadlocks", Stats.Table.Right);
          ("violation", Stats.Table.Left);
        ]
  in
  let pair = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let path3 = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let tri = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  List.iter
    (fun (label, graph, colors, sessions, crash_budget, fp_budget, max_states) ->
      let r =
        Mcheck.Frontier.explore ~max_states
          { Mcheck.Model.graph; colors; sessions; crash_budget; fp_budget }
      in
      Stats.Table.add_row table
        [
          label;
          Stats.Table.cell_int sessions;
          Stats.Table.cell_int crash_budget;
          Stats.Table.cell_int fp_budget;
          Stats.Table.cell_int r.states;
          Stats.Table.cell_int r.transitions;
          Stats.Table.cell_bool r.complete;
          Stats.Table.cell_int r.deadlocks;
          (match r.violation with None -> "none" | Some (m, _) -> m);
        ])
    [
      ("pair", pair, [| 0; 1 |], 2, 0, 0, 300_000);
      ("pair", pair, [| 0; 1 |], 2, 1, 2, 300_000);
      ("path-3", path3, [| 0; 1; 0 |], 1, 0, 0, 300_000);
      ("path-3", path3, [| 0; 1; 0 |], 1, 1, 1, 300_000);
      ("triangle", tri, [| 0; 1; 2 |], 1, 0, 0, 300_000);
      ("triangle", tri, [| 0; 1; 2 |], 1, 1, 0, 300_000);
    ];
  print_table table;
  print_endline
    "note: 'complete = yes' rows exhaust every reachable interleaving; capped rows\n\
     verify the explored prefix. No violation is the expected result on every row.\n\
     Every transition is checked to lower Model.rank, so the model is acyclic and every\n\
     schedule finite: 0 deadlocks in a complete row is Theorem 2 for every schedule.\n";
  (* BFS vs sleep-set DPOR: same states, same verdict, fewer transitions.
     The reduction factor grows with the number of non-adjacent process
     pairs (pair has none: every pair of actions interferes). *)
  let reduction_table =
    Stats.Table.create ~title:"MC: BFS vs DPOR (sleep-set partial-order reduction)"
      ~columns:
        [
          ("instance", Stats.Table.Left);
          ("sessions", Stats.Table.Right);
          ("crashes", Stats.Table.Right);
          ("fp", Stats.Table.Right);
          ("states", Stats.Table.Right);
          ("bfs trans", Stats.Table.Right);
          ("dpor trans", Stats.Table.Right);
          ("reduction", Stats.Table.Right);
          ("bfs s", Stats.Table.Right);
          ("dpor s", Stats.Table.Right);
        ]
  in
  List.iter
    (fun (label, graph, colors, sessions, crash_budget, fp_budget, max_states) ->
      let cfg = { Mcheck.Model.graph; colors; sessions; crash_budget; fp_budget } in
      let timed f =
        let t0 = Sys.time () in
        let r = f () in
        (r, Sys.time () -. t0)
      in
      let b, bfs_t = timed (fun () -> Mcheck.Frontier.explore ~max_states cfg) in
      let d, dpor_t = timed (fun () -> Mcheck.Dpor.explore ~max_states cfg) in
      assert (b.Mcheck.Explore.states = d.Mcheck.Explore.states);
      assert (b.violation = None && d.violation = None);
      Stats.Table.add_row reduction_table
        [
          label;
          Stats.Table.cell_int sessions;
          Stats.Table.cell_int crash_budget;
          Stats.Table.cell_int fp_budget;
          Stats.Table.cell_int b.states;
          Stats.Table.cell_int b.transitions;
          Stats.Table.cell_int d.transitions;
          Printf.sprintf "%.2fx" (float_of_int b.transitions /. float_of_int d.transitions);
          Printf.sprintf "%.2f" bfs_t;
          Printf.sprintf "%.2f" dpor_t;
        ])
    [
      ("pair", pair, [| 0; 1 |], 2, 0, 0, 300_000);
      ("pair", pair, [| 0; 1 |], 2, 1, 2, 300_000);
      ("path-3", path3, [| 0; 1; 0 |], 1, 0, 0, 300_000);
      ("path-3", path3, [| 0; 1; 0 |], 1, 1, 0, 300_000);
      ("triangle", tri, [| 0; 1; 2 |], 1, 0, 0, 300_000);
    ];
  print_table reduction_table;
  print_endline
    "note: identical state counts and verdicts are asserted per row; DPOR explores the\n\
     same space through fewer interleavings. Wall-clock is a single measurement.\n"

let run_fuzz () =
  print_endline
    "### FZ — property-based fuzzing campaigns (shared oracles for Theorems 1-3 + Section 7)\n";
  let domains = (Harness.Experiments.default_ctx ()).domains in
  (* Fixed seeds and case counts: the tables are deterministic, like
     every other reproduction artifact. *)
  let sound = Fuzz.Campaign.run ~domains ~profile:Fuzz.Gen.Sound ~seed:11L ~cases:400 () in
  let hostile =
    Fuzz.Campaign.run ~domains ~profile:Fuzz.Gen.Hostile ~seed:11L ~cases:60 ()
  in
  let summary =
    Stats.Table.create ~title:"FZ: campaign summary (seed 11)"
      ~columns:
        [
          ("profile", Stats.Table.Left);
          ("cases", Stats.Table.Right);
          ("failures", Stats.Table.Right);
          ("eats", Stats.Table.Right);
          ("events", Stats.Table.Right);
        ]
  in
  List.iter
    (fun (r : Fuzz.Campaign.report) ->
      Stats.Table.add_row summary
        [
          Fuzz.Gen.profile_name r.profile;
          Stats.Table.cell_int r.cases;
          Stats.Table.cell_int (List.length r.failures);
          Stats.Table.cell_int r.total_eats;
          Stats.Table.cell_int r.total_events;
        ])
    [ sound; hostile ];
  print_table summary;
  let coverage =
    Stats.Table.create ~title:"FZ: per-oracle coverage"
      ~columns:
        [
          ("oracle", Stats.Table.Left);
          ("sound checked", Stats.Table.Right);
          ("sound failures", Stats.Table.Right);
          ("hostile checked", Stats.Table.Right);
          ("hostile failures", Stats.Table.Right);
        ]
  in
  let fail_count (r : Fuzz.Campaign.report) name =
    List.length (List.filter (fun (f : Fuzz.Campaign.failure) -> f.property = name) r.failures)
  in
  List.iter
    (fun (p : Fuzz.Property.t) ->
      Stats.Table.add_row coverage
        [
          p.name;
          Stats.Table.cell_int (List.assoc p.name sound.checked);
          Stats.Table.cell_int (fail_count sound p.name);
          Stats.Table.cell_int (List.assoc p.name hostile.checked);
          Stats.Table.cell_int (fail_count hostile p.name);
        ])
    Fuzz.Property.all;
  print_table coverage;
  print_endline
    "note: the sound profile stays inside the theorems' hypotheses — 0 failures is the\n\
     expected (and asserted-in-CI) result. The hostile profile adds baseline daemons and\n\
     bad detectors, so its failures are the oracles catching designed violations.\n";
  let shrunk =
    Stats.Table.create ~title:"FZ: delta-debugging effectiveness (hostile failures)"
      ~columns:
        [
          ("case", Stats.Table.Right);
          ("property", Stats.Table.Left);
          ("topology", Stats.Table.Left);
          ("shrunk to", Stats.Table.Left);
          ("horizon", Stats.Table.Right);
          ("shrunk to ", Stats.Table.Right);
          ("steps", Stats.Table.Right);
          ("attempts", Stats.Table.Right);
        ]
  in
  List.iter
    (fun (f : Fuzz.Campaign.failure) ->
      if f.shrink_steps > 0 || f.shrink_attempts > 0 then
        Stats.Table.add_row shrunk
          [
            Stats.Table.cell_int f.case;
            f.property;
            Cgraph.Topology.name f.scenario.topology;
            Cgraph.Topology.name f.shrunk.topology;
            Stats.Table.cell_int f.scenario.horizon;
            Stats.Table.cell_int f.shrunk.horizon;
            Stats.Table.cell_int f.shrink_steps;
            Stats.Table.cell_int f.shrink_attempts;
          ])
    hostile.failures;
  print_table shrunk;
  print_endline
    "note: every failing case minimizes to a few processes and a short horizon; each\n\
     reproducer replays to the same verdict from its scenario fields alone.\n"

(* ------------------------------------------------------------------ *)
(* scale: simulator-core scaling sweep                                  *)
(* ------------------------------------------------------------------ *)

(* Scenario for the scaling table: no crashes, no invariant polling, a
   scripted detector — the run exercises exactly the engine + network +
   daemon hot path. The default horizon gives every process a handful
   of complete think/eat sessions. *)
let scale_horizon = 1_200

(* The clique cell is the end-to-end contended-clique world without its
   invariant watcher: zero think time, the scripted oracle's false
   suspicions and one crash, so Song-Pike's guards at degree n - 1 are
   what it measures. It runs that workload's horizon. *)
let clique_horizon = 1_600_000

let cell_horizon = function `Clique -> clique_horizon | `Ring | `Grid | `Scale_free -> scale_horizon

let scale_spec kind n : Cgraph.Topology.spec =
  match kind with
  | `Ring -> Cgraph.Topology.Ring n
  | `Grid ->
      let r = int_of_float (Float.round (sqrt (float_of_int n))) in
      Cgraph.Topology.Grid (r, (n + r - 1) / r)
  | `Scale_free -> Cgraph.Topology.Scale_free (n, 2, 42L)
  | `Clique -> Cgraph.Topology.Clique n

let scale_scenario ~horizon kind n : Harness.Scenario.t =
  let s =
    {
      Harness.Scenario.default with
      name = "scale";
      topology = scale_spec kind n;
      seed = 42L;
      delay = Net.Delay.Uniform (1, 8);
      detector = Harness.Scenario.Never;
      algo = Harness.Scenario.Song_pike;
      workload = Harness.Scenario.default_workload;
      crashes = Harness.Scenario.No_crashes;
      horizon;
      check_every = None;
    }
  in
  match kind with
  | `Ring | `Grid | `Scale_free -> s
  | `Clique ->
      {
        s with
        workload = Harness.Scenario.contended_workload;
        detector =
          Harness.Scenario.Oracle
            { detection_delay = 50; fp_per_edge = 2; fp_window = 200_000; fp_max_len = 200 };
        crashes = Harness.Scenario.Random_crashes { count = 1; from_t = 100_000; to_t = 400_000 };
      }

type scale_cell = {
  label : string;
  cell_n : int;
  cell_edges : int;
  cell_events : int;
  cell_eats : int;
  alloc_words : int;  (* words allocated by create+run+report: exact *)
  live_words : int;   (* live-heap delta while the world is alive: advisory *)
  reachable_words : int;  (* the world's reachable heap after report: exact *)
  static_words : int;  (* the world's reachable heap right after create: exact *)
  create_alloc_words : int;  (* words allocated by create alone: exact *)
  seconds : float;
  advance_seconds : float;  (* [World.advance] alone: advisory *)
}

(* Words allocated so far by this process. Not [Gc.allocated_bytes]:
   in OCaml 5.1 its minor part, read from [Gc.counters], under-reads the
   minor heap's current contents until the next minor collection, so a
   delta moved by up to a minor heap's worth of words with the GC timing,
   that is with whatever ran before. [Gc.minor_words] is exact. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words_since w0 = int_of_float (allocated_words () -. w0)

let kind_name = function
  | `Ring -> "ring"
  | `Grid -> "grid"
  | `Scale_free -> "sf"
  | `Clique -> "clique"

let kind_of_name = function
  | "ring" -> Some `Ring
  | "grid" -> Some `Grid
  | "sf" -> Some `Scale_free
  | "clique" -> Some `Clique
  | _ -> None

(* One cell, measured in the calling process, single-domain: the Gc
   counters are the measurement. [run_scale_cell] runs it in a fresh
   child process ([main.exe --scale-cell KIND N HORIZON LIVE]), so that
   neither the allocation count nor the live-heap delta depends on what
   ran before the cell. Without [measure_live] the cell counts the
   world's reachable words instead: exact, and cheap at smoke sizes. *)
let measure_scale_cell ~measure_live ~horizon kind n =
  let scenario = scale_scenario ~horizon kind n in
  let spec = scenario.topology in
  let live0 =
    if measure_live then begin
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words
    end
    else 0
  in
  let alloc0 = allocated_words () in
  let t0 = Sys.time () in
  let w = Harness.World.create scenario in
  let create_alloc_words = words_since alloc0 in
  let static_words = Obj.reachable_words (Obj.repr w) in
  let t_advance = Sys.time () in
  Harness.World.advance w ~until:scenario.horizon;
  let advance_seconds = Sys.time () -. t_advance in
  let r = Harness.World.report w in
  let seconds = Sys.time () -. t0 in
  let alloc_words = words_since alloc0 in
  let live_words =
    if measure_live then begin
      Gc.full_major ();
      max 0 ((Gc.stat ()).Gc.live_words - live0)
    end
    else 0
  in
  let reachable_words = if measure_live then 0 else Obj.reachable_words (Obj.repr w) in
  {
    label =
      (if horizon = cell_horizon kind then Cgraph.Topology.name spec
       else Printf.sprintf "%s-h%d" (Cgraph.Topology.name spec) horizon);
    cell_n = Cgraph.Graph.n r.graph;
    cell_edges = Cgraph.Graph.edge_count r.graph;
    cell_events = r.events_processed;
    cell_eats = r.total_eats;
    alloc_words;
    live_words;
    reachable_words;
    static_words;
    create_alloc_words;
    seconds;
    advance_seconds;
  }

(* One line, read back by [run_scale_cell]; %h keeps the float exact. *)
let print_scale_cell c =
  Printf.printf "%s %d %d %d %d %d %d %d %d %d %h %h" c.label c.cell_n c.cell_edges c.cell_events
    c.cell_eats c.alloc_words c.live_words c.reachable_words c.static_words c.create_alloc_words
    c.seconds c.advance_seconds;
  print_newline ()

(* Run one cell in a child process and read back the line it prints. *)
let run_scale_cell ~measure_live (kind, n, horizon) =
  let args =
    [| Sys.executable_name; "--scale-cell"; kind_name kind; string_of_int n; string_of_int horizon;
       (if measure_live then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      Scanf.sscanf line "%s %d %d %d %d %d %d %d %d %d %h %h "
        (fun label cell_n cell_edges cell_events cell_eats alloc_words live_words reachable_words
             static_words create_alloc_words seconds advance_seconds ->
          {
            label;
            cell_n;
            cell_edges;
            cell_events;
            cell_eats;
            alloc_words;
            live_words;
            reachable_words;
            static_words;
            create_alloc_words;
            seconds;
            advance_seconds;
          })
  | _ -> failwith (Printf.sprintf "scale cell %s-%d: child process failed" (kind_name kind) n)

(* Set-up gate: what [World.create] allocates beyond the world it keeps
   may be the pairs array the graph is built from (2 words per edge),
   the colouring's degree-sized scratch (about n words) and a fixed
   allowance; garbage per edge or per process beyond that fails. *)
let setup_garbage_bound c = (2 * c.cell_edges) + (2 * c.cell_n) + 512

let setup_garbage c = c.create_alloc_words - c.static_words

(* Engine-only throughput: a self-rescheduling event storm with spread
   delays. *)
let engine_micro () =
  let alloc0 = allocated_words () in
  let t0 = Sys.time () in
  let engine = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 200_000 then
      Sim.Engine.schedule_after engine ~delay:(1 + ((!count * 7) mod 50)) tick
  in
  Sim.Engine.schedule engine ~at:0 tick;
  Sim.Engine.run_all engine;
  let seconds = Sys.time () -. t0 in
  (Sim.Engine.processed engine, words_since alloc0, seconds)

(* The invariant watcher on a warm state: a clique of 16 with zero
   think time, the scripted oracle and one crash (the world of the
   end-to-end contended-clique workload), run past its crash with
   messages in flight, then [check_invariants] called [invariant_calls]
   times. A passing check allocates nothing; the counter reads' own
   words are measured once and subtracted, so that reads exactly 0. *)
let invariant_calls = 20_000

let invariants_micro () =
  let s =
    {
      Harness.Scenario.default with
      name = "invariants";
      topology = Cgraph.Topology.Clique 16;
      workload = Harness.Scenario.contended_workload;
      crashes = Harness.Scenario.Random_crashes { count = 1; from_t = 100; to_t = 400 };
      check_every = None;
    }
  in
  let parts = Harness.Setup.build s in
  ignore
    (Harness.Workload.attach ~engine:parts.engine ~faults:parts.faults ~n:16
       ~rng:(Sim.Rng.split_named parts.rng "workload") ~workload:s.workload parts.instance);
  Sim.Engine.run parts.engine ~until:2_000;
  let check = parts.instance.check_invariants in
  check ();
  let idle =
    let w0 = allocated_words () in
    words_since w0
  in
  let t0 = Sys.time () in
  let alloc0 = allocated_words () in
  for _ = 1 to invariant_calls do
    check ()
  done;
  let words = words_since alloc0 - idle in
  let seconds = Sys.time () -. t0 in
  (words, 1e9 *. seconds /. float_of_int invariant_calls)

let run_scale ~(ctx : Harness.Experiments.ctx) ~smoke ~json ~baseline () =
  print_endline
    (if smoke then
       "### SCALE — simulator-core scaling sweep (smoke: deterministic columns only)\n"
     else "### SCALE — simulator-core scaling sweep\n");
  let sizes = if smoke then [ 100; 1_000 ] else [ 100; 1_000; 10_000; 100_000 ] in
  let cells =
    List.concat_map
      (fun kind -> List.map (fun n -> (kind, n, scale_horizon)) sizes)
      [ `Ring; `Grid; `Scale_free ]
    (* Memory must not grow with run length: ring-1000 again at 16x the
       horizon, whose reachable words must match the short cell's. *)
    @ [ (`Ring, 1_000, 16 * scale_horizon) ]
    (* The 10^6 step, ring only: the constant-degree topology isolates
       pure table scaling. The smoke sweep runs ring-10^5 (about 2.5 s),
       so that an O(n) allocation inside [advance] moves a gated words
       key there, not only at 10^3, where a run amortises it. *)
    @ (if smoke then [ (`Ring, 100_000, scale_horizon) ] else [ (`Ring, 1_000_000, scale_horizon) ])
    @ [ (`Clique, 16, clique_horizon) ]
  in
  let report = Report.create () in
  Report.str report "schema" "daemon-sim-bench/1";
  (* Engine micro on the timing wheel, the engine's event queue. *)
  let wheel_events, wheel_alloc, wheel_s = engine_micro () in
  Report.int report "engine.wheel.events" wheel_events;
  Report.int report "engine.wheel.alloc_words" wheel_alloc;
  Report.float report "engine.wheel.run_seconds" wheel_s;
  (* Model-checker throughput. *)
  let mc_alloc0 = allocated_words () in
  let mc_t0 = Sys.time () in
  let mc =
    Mcheck.Frontier.explore
      {
        Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ];
        colors = [| 0; 1 |];
        sessions = 2;
        crash_budget = 0;
        fp_budget = 0;
      }
  in
  let mc_s = Sys.time () -. mc_t0 in
  Report.int report "mcheck.pair2.states" mc.Mcheck.Explore.states;
  Report.int report "mcheck.pair2.transitions" mc.transitions;
  Report.int report "mcheck.pair2.alloc_words"
    (words_since mc_alloc0);
  Report.float report "mcheck.pair2.run_seconds" mc_s;
  let inv_words, inv_ns = invariants_micro () in
  Report.int report "invariants.clique-16.calls" invariant_calls;
  Report.int report "invariants.clique-16.alloc_words" inv_words;
  Report.float report "invariants.clique-16.ns_per_call" inv_ns;
  (* The sweep itself. *)
  let columns =
    [
      ("topology", Stats.Table.Left);
      ("n", Stats.Table.Right);
      ("edges", Stats.Table.Right);
      ("events", Stats.Table.Right);
      ("eats", Stats.Table.Right);
      ("alloc w/proc", Stats.Table.Right);
    ]
    @
    if smoke then [ ("reach B/proc", Stats.Table.Right) ]
    else
      [
        ("events/s", Stats.Table.Right);
        ("live B/proc", Stats.Table.Right);
        ("time", Stats.Table.Right);
      ]
  in
  let table = Stats.Table.create ~title:"SCALE: one world per cell, hot path only" ~columns in
  let setup_failures = ref [] in
  List.iter
    (fun cell ->
      let c = run_scale_cell ~measure_live:(not smoke) cell in
      if setup_garbage c > setup_garbage_bound c then
        setup_failures :=
          Printf.sprintf "%s: World.create left %d words of garbage (create %d - static %d) > %d"
            c.label (setup_garbage c) c.create_alloc_words c.static_words (setup_garbage_bound c)
          :: !setup_failures;
      let prefix = Printf.sprintf "scale.%s" c.label in
      Report.int report (prefix ^ ".n") c.cell_n;
      Report.int report (prefix ^ ".edges") c.cell_edges;
      Report.int report (prefix ^ ".events") c.cell_events;
      Report.int report (prefix ^ ".eats") c.cell_eats;
      Report.int report (prefix ^ ".alloc_words") c.alloc_words;
      Report.int report (prefix ^ ".create_alloc_words") c.create_alloc_words;
      Report.float report (prefix ^ ".run_seconds") c.seconds;
      Report.float report (prefix ^ ".events_per_sec")
        (if c.seconds > 0.0 then float_of_int c.cell_events /. c.seconds else 0.0);
      if smoke then Report.int report (prefix ^ ".reachable_words") c.reachable_words
      else Report.int report (prefix ^ ".live_words") c.live_words;
      (* What one event of [advance] costs: advisory, at the two ring
         sizes ROADMAP item 2 compares (the working set growing past the
         caches) and on the contended clique (the guards' cost). *)
      if
        (not smoke)
        && (cell = (`Ring, 1_000, scale_horizon)
           || cell = (`Ring, 100_000, scale_horizon)
           || cell = (`Clique, 16, clique_horizon))
      then
        Report.float report (prefix ^ ".advance.ns_per_event")
          (1e9 *. c.advance_seconds /. float_of_int (max 1 c.cell_events));
      Report.float report (prefix ^ ".static_bytes_per_proc")
        (float_of_int (8 * c.static_words) /. float_of_int (max 1 c.cell_n));
      Stats.Table.add_row table
        ([
           c.label;
           Stats.Table.cell_int c.cell_n;
           Stats.Table.cell_int c.cell_edges;
           Stats.Table.cell_int c.cell_events;
           Stats.Table.cell_int c.cell_eats;
           Stats.Table.cell_int (c.alloc_words / max 1 c.cell_n);
         ]
        @
        if smoke then [ Stats.Table.cell_int (8 * c.reachable_words / max 1 c.cell_n) ]
        else
          [
            Printf.sprintf "%.0f" (float_of_int c.cell_events /. Float.max 1e-9 c.seconds);
            Stats.Table.cell_int (8 * c.live_words / max 1 c.cell_n);
            Printf.sprintf "%.2f s" c.seconds;
          ]))
    cells;
  (* Fuzzing throughput, after the in-process engine and model-checker
     measurements: it runs on the context's domain count, and once a
     domain has been spawned and joined, OCaml 5's GC merges the dead
     domain's counters into this process's counters at an arbitrary
     later point — so every exact allocation delta measured in this
     process must come before the first spawn. The campaign counts
     themselves are identical for any --domains (the pool's contract),
     so no allocation metric is recorded for this section. *)
  let fz_t0 = Sys.time () in
  let fz = Fuzz.Campaign.run ~domains:ctx.domains ~profile:Fuzz.Gen.Sound ~seed:11L ~cases:40 () in
  let fz_s = Sys.time () -. fz_t0 in
  Report.int report "fuzz.sound40.cases" fz.Fuzz.Campaign.cases;
  Report.int report "fuzz.sound40.failures" (List.length fz.failures);
  Report.int report "fuzz.sound40.total_events" fz.total_events;
  Report.float report "fuzz.sound40.run_seconds" fz_s;
  (* Parallel stepping on the shard-safe ping workload: every shard
     count's pool run must equal the engine's sequential loop exactly
     (the merge contract). Runs after the alloc measurements above
     because the pool spawns domains. *)
  let shard_topo = Cgraph.Topology.Ring 1_000 in
  let shard_horizon = 400 in
  let seq = Harness.Shard_ping.run ~topology:shard_topo ~horizon:shard_horizon () in
  Exec.Pool.with_pool ~domains:ctx.domains (fun pool ->
      List.iter
        (fun s ->
          let r =
            Harness.Shard_ping.run ~pool ~shards:s ~topology:shard_topo ~horizon:shard_horizon ()
          in
          assert (r = seq);
          let prefix = Printf.sprintf "shard.ring-1000.s%d" s in
          Report.int report (prefix ^ ".events") r.Harness.Shard_ping.events;
          Report.int report (prefix ^ ".sent") r.sent;
          Report.int report (prefix ^ ".checksum") r.checksum;
          Report.int report (prefix ^ ".worst_watermark") r.worst_watermark)
        [ 1; 2; 4 ]);
  Report.int report "shard.ring-1000.parallel_matches" 1;
  if not smoke then begin
    (* Advisory wall-clock for the 10^6-process sharded step. *)
    let t0 = Sys.time () in
    let big =
      Exec.Pool.with_pool ~domains:ctx.domains (fun pool ->
          Harness.Shard_ping.run ~pool ~shards:(max 2 ctx.domains)
            ~topology:(Cgraph.Topology.Ring 1_000_000) ~horizon:30 ())
    in
    let dt = Sys.time () -. t0 in
    Report.int report "shard.ring-1m.events" big.Harness.Shard_ping.events;
    Report.int report "shard.ring-1m.checksum" big.checksum;
    Report.float report "shard.ring-1m.run_seconds" dt
  end;
  print_table table;
  print_endline
    "note: alloc w/proc is the exact per-process allocation of a whole run (engine +\n\
     network + daemon); live B/proc is the resident footprint while the world is\n\
     alive — both should track the degree, not n. Wall-clock columns are advisory.\n";
  (match json with
  | None -> ()
  | Some path ->
      Report.write report path;
      Printf.printf "wrote %s\n" path);
  let baseline_ok =
    match baseline with
    | None -> true
    | Some path ->
        let verdict =
          Report.compare_metrics ~baseline:(Report.read path) ~current:(Report.parse (Report.to_string report)) ()
        in
        List.iter (fun w -> Printf.printf "advisory: %s\n" w) verdict.Report.warnings;
        List.iter (fun f -> Printf.printf "FAIL: %s\n" f) verdict.Report.failures;
        if verdict.Report.failures = [] then
          Printf.printf "baseline %s: deterministic metrics match\n" path
        else
          Printf.printf "baseline %s: %d deterministic metric(s) changed\n" path
            (List.length verdict.Report.failures);
        verdict.Report.failures = []
  in
  List.iter (fun f -> Printf.printf "FAIL: set-up gate: %s\n" f) (List.rev !setup_failures);
  if (not baseline_ok) || !setup_failures <> [] then exit 1

let usage () =
  prerr_endline
    "usage: main.exe [ID ...] [--domains N] [--seeds N] [--smoke] [--json FILE] [--baseline FILE]\n\
     IDs: e1..e12, f1..f6, mc, fuzz, perf, scale (all but scale when omitted).\n\
     --domains caps batch/sweep parallelism (default: recommended domain count;\n\
     output is identical for any value); --seeds sets seeds per batch row.\n\
     scale sweeps the simulator core over n x topology; --smoke restricts it to\n\
     n <= 1000 and deterministic columns, --json writes the machine-readable\n\
     report, --baseline compares against a committed report (exit 1 when a\n\
     deterministic metric diverges; wall-clock deltas are advisory). scale also\n\
     exits 1 when a cell's World.create leaves more than 2*edges + 2*n + 512\n\
     words of garbage.";
  exit 2

type opts = { smoke : bool; json : string option; baseline : string option }

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--scale-cell"; kind; n; horizon; live ] -> (
      match (kind_of_name kind, int_of_string_opt n, int_of_string_opt horizon, live) with
      | Some kind, Some n, Some horizon, ("0" | "1") ->
          print_scale_cell
            (measure_scale_cell ~measure_live:(live = "1") ~horizon kind n);
          exit 0
      | _ -> usage ())
  | _ -> ());
  let default = Harness.Experiments.default_ctx () in
  let rec parse args (ctx : Harness.Experiments.ctx) (opts : opts) ids =
    match args with
    | [] -> (ctx, opts, List.rev ids)
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 -> parse rest { ctx with domains = d } opts ids
        | _ -> usage ())
    | "--seeds" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s when s >= 1 -> parse rest { ctx with seeds = s } opts ids
        | _ -> usage ())
    | "--smoke" :: rest -> parse rest ctx { opts with smoke = true } ids
    | "--json" :: v :: rest -> parse rest ctx { opts with json = Some v } ids
    | "--baseline" :: v :: rest -> parse rest ctx { opts with baseline = Some v } ids
    | ("--domains" | "--seeds" | "--json" | "--baseline" | "--help" | "-h") :: _ -> usage ()
    | id :: rest -> parse rest ctx opts (id :: ids)
  in
  let ctx, opts, ids =
    parse
      (List.tl (Array.to_list Sys.argv))
      default
      { smoke = false; json = None; baseline = None }
      []
  in
  (* "scale" runs only when asked for: the 100k-process cells are not
     part of the default reproduction sweep. *)
  let wants x = ids = [] || List.mem x ids in
  List.iter
    (fun (e : Harness.Experiments.t) ->
      if wants e.id then Harness.Experiments.run_and_print ~ctx e)
    Harness.Experiments.all;
  if wants "mc" then run_mc ();
  if wants "fuzz" then run_fuzz ();
  if wants "perf" then run_perf ();
  if List.mem "scale" ids then
    run_scale ~ctx ~smoke:opts.smoke ~json:opts.json ~baseline:opts.baseline ()
