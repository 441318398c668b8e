(* daemon_sim — CLI for the wait-free distributed-daemon reproduction.

   Subcommands:
     run          one dining scenario, human-readable report
     experiments  the reproduction suite (E1..E12, F1..F6)
     check        exhaustive model checking of small instances: parallel
                  frontier BFS / DPOR / counterexample replay
     fuzz         property-based fuzzing campaigns with shrinking + replay
     stabilize    a self-stabilizing protocol driven by the daemon *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsers.                                            *)
(* ------------------------------------------------------------------ *)

let topology_conv =
  let parse s = Cgraph.Topology.parse s |> Result.map_error (fun e -> `Msg e) in
  Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf (Cgraph.Topology.name t))

let topology_arg =
  Arg.(
    value
    & opt topology_conv (Cgraph.Topology.Ring 8)
    & info [ "t"; "topology" ] ~docv:"TOPO"
        ~doc:
          "Conflict graph: ring:N, path:N, clique:N, star:N, grid:RxC, torus:RxC, tree:N, \
           cube:D, gnp:N:P[:SEED].")

let seed_arg =
  Arg.(value & opt int64 1L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

let horizon_arg =
  Arg.(value & opt int 60_000 & info [ "horizon" ] ~docv:"TICKS" ~doc:"Run length in ticks.")

let crashes_arg =
  Arg.(
    value & opt int 1
    & info [ "f"; "crashes" ] ~docv:"N" ~doc:"Number of random crash faults to inject.")

let detector_kind =
  Arg.enum
    [
      ("oracle", `Oracle);
      ("oracle-clean", `Oracle_clean);
      ("heartbeat", `Heartbeat);
      ("perfect", `Perfect);
      ("never", `Never);
      ("unreliable", `Unreliable);
    ]

let detector_arg =
  Arg.(
    value & opt detector_kind `Oracle
    & info [ "d"; "detector" ] ~docv:"FD"
        ~doc:
          "Failure detector: oracle (scripted evp-P1 with false positives), oracle-clean \
           (no false positives), heartbeat (message-based), perfect, never (Choy-Singh \
           baseline), unreliable (complete but never accurate).")

let algo_arg =
  Arg.(
    value
    & opt (Arg.enum [ ("song-pike", Harness.Scenario.Song_pike); ("fork-only", Harness.Scenario.Fork_only); ("chandy-misra", Harness.Scenario.Chandy_misra); ("ordered", Harness.Scenario.Ordered) ]) Harness.Scenario.Song_pike
    & info [ "a"; "algo" ] ~docv:"ALGO" ~doc:"Daemon: song-pike, fork-only, chandy-misra, ordered.")

let contended_arg =
  Arg.(value & flag & info [ "contended" ] ~doc:"Zero think time (maximum contention).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the dining-layer event trace.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Write the conflict graph as Graphviz dot to $(docv), with priorities as \
           labels and crashed processes filled red.")

let positive_int what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(
    value
    & opt (positive_int "--domains") (Exec.Pool.default_domains ())
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for multi-seed batches and sweeps (default: the recommended \
           domain count of this machine; 1 forces the sequential fallback). Results are \
           bit-identical for any value — only wall-clock time changes.")

let seeds_arg =
  Arg.(
    value
    & opt (positive_int "--seeds") 10
    & info [ "seeds" ] ~docv:"N" ~doc:"Independent seeds per multi-seed batch.")

let resolve_detector = function
  | `Oracle -> Harness.Scenario.noisy_oracle
  | `Oracle_clean -> Harness.Scenario.quiet_oracle
  | `Heartbeat -> Harness.Scenario.default_heartbeat
  | `Perfect -> Harness.Scenario.Perfect
  | `Never -> Harness.Scenario.Never
  | `Unreliable -> Harness.Scenario.Unreliable { period = 1_500; duration = 150 }

(* One CLI surface, one scenario shape: every subcommand that runs a
   world builds it here. *)
let make_scenario ~name ~topology ~seed ~horizon ~crashes ~detector ~algo ~contended =
  {
    Harness.Scenario.default with
    name;
    topology;
    seed;
    horizon;
    algo;
    detector = resolve_detector detector;
    workload =
      (if contended then Harness.Scenario.contended_workload
       else Harness.Scenario.default_workload);
    crashes =
      (if crashes = 0 then Harness.Scenario.No_crashes
       else
         Harness.Scenario.Random_crashes
           { count = crashes; from_t = horizon / 10; to_t = horizon / 2 });
  }

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let print_report (r : Harness.World.report) =
  let summary = Monitor.Response.summary r.response in
  Printf.printf "scenario        : %s on %s, seed %Ld, horizon %d\n" r.scenario.name
    (Cgraph.Topology.name r.scenario.topology)
    r.scenario.seed r.horizon;
  Printf.printf "daemon          : %s + %s\n"
    (Harness.Scenario.algo_name r.scenario.algo)
    (Harness.Scenario.detector_name r.scenario.detector);
  Printf.printf "crashes         : %s\n"
    (if r.crashed = [] then "none"
     else String.concat ", " (List.map (fun (p, t) -> Printf.sprintf "p%d@%d" p t) r.crashed));
  Printf.printf "eats            : %d (%.1f per ktick), hungry sessions served %d\n" r.total_eats
    (Harness.World.throughput r)
    (Monitor.Response.served_count r.response);
  Printf.printf "response (ticks): mean %.1f  p95 %.1f  p99 %.1f  max %.1f\n" summary.mean
    summary.p95 summary.p99 summary.max;
  let starved = Harness.World.starved r in
  Printf.printf "starved         : %s\n"
    (if starved = [] then "none (wait-free)"
     else "PROCESSES " ^ String.concat "," (List.map string_of_int starved));
  (* A cut at or past the horizon leaves an empty suffix: a count over
     it would pass the theorem vacuously, so it is not shown. *)
  let cut = Harness.World.settle_cutoff r in
  let late theorem count =
    if cut >= r.horizon then
      Printf.sprintf "Theorem %d not measured: cut t=%d is past the horizon" theorem cut
    else Printf.sprintf "after t=%d: %d" cut (count r)
  in
  Printf.printf "exclusion       : %d violation(s); detector converged at %s; %s\n"
    (Monitor.Exclusion.count r.exclusion)
    (Stats.Table.cell_time r.convergence)
    (late 1 Harness.World.late_violations);
  Printf.printf "overtaking      : max consecutive %d; %s (bound %d)\n"
    (Monitor.Fairness.max_consecutive r.fairness)
    (late 3 Harness.World.late_overtakes)
    (Harness.World.overtake_bound r);
  Printf.printf "channels        : max %d msgs in transit per edge (bound 4)\n"
    (Net.Link_stats.max_edge_watermark r.link_stats);
  (match (r.max_footprint_bits, r.max_message_bits) with
  | Some fp, Some mb -> Printf.printf "bounded state   : <= %d bits/process, <= %d bits/message\n" fp mb
  | _ -> ());
  Printf.printf "invariants      : %s\n" (Option.value r.invariant_error ~default:"all executable lemmas held");
  Printf.printf "engine          : %d events processed\n" r.events_processed

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Dump the run's metrics registry (traffic counters, daemon counters, wait \
           histograms, engine gauges) after the report.")

let run_cmd =
  let go topology seed horizon crashes detector algo contended trace show_metrics dot =
    let scenario =
      make_scenario ~name:"cli" ~topology ~seed ~horizon ~crashes ~detector ~algo ~contended
    in
    let recorder = Obs.Recorder.create () in
    if trace then
      Obs.Recorder.on_record recorder (fun r ->
          if not (Obs.Record.structural r.kind) then Format.printf "%a@." Obs.Record.pp_row r);
    let metrics = Obs.Metrics.create () in
    let report = Harness.World.run ~recorder ~metrics scenario in
    print_report report;
    if show_metrics then Format.printf "metrics:@.%a" Obs.Metrics.pp metrics;
    match dot with
    | None -> ()
    | Some path ->
        let colors = Cgraph.Coloring.greedy report.graph in
        let crashed = List.map fst report.crashed in
        let contents =
          Cgraph.Graph.to_dot report.graph
            ~vertex_label:(fun pid -> Printf.sprintf "p%d\\nc=%d" pid colors.(pid))
            ~vertex_color:(fun pid -> if List.mem pid crashed then Some "red" else None)
        in
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one dining scenario and report every paper metric.")
    Term.(
      const go $ topology_arg $ seed_arg $ horizon_arg $ crashes_arg $ detector_arg $ algo_arg
      $ contended_arg $ trace_arg $ metrics_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* experiments                                                          *)
(* ------------------------------------------------------------------ *)

let experiments_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:
            "Experiment ids (e1..e12, f1..f6); all when omitted. An unknown id exits 2 \
             before any experiment runs.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write each table and figure's raw data as CSV files into $(docv).")
  in
  let write_csv dir id k name contents =
    let slug =
      String.map
        (fun c -> if ('a' <= c && c <= 'z') || ('0' <= c && c <= '9') then c else '-')
        (String.lowercase_ascii name)
    in
    let path = Filename.concat dir (Printf.sprintf "%s-%d-%s.csv" id k slug) in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  let go ids csv_dir domains seeds =
    let ctx = { Harness.Experiments.domains; seeds } in
    (* Every id is checked before anything runs. *)
    let selected =
      if ids = [] then Harness.Experiments.all
      else
        List.map
          (fun id ->
            match Harness.Experiments.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment id %S (known: %s)\n" id
                  (String.concat ", "
                     (List.map (fun (e : Harness.Experiments.t) -> e.id) Harness.Experiments.all));
                exit 2)
          ids
    in
    (match csv_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    List.iter
      (fun (e : Harness.Experiments.t) ->
        Printf.printf "### %s — %s (reproduces: %s)\n\n" (String.uppercase_ascii e.id) e.title
          e.claim;
        let artifacts = e.run ctx in
        List.iter (Harness.Experiments.print_artifact Format.std_formatter) artifacts;
        match csv_dir with
        | None -> ()
        | Some dir ->
            List.iteri
              (fun k artifact ->
                match artifact with
                | Harness.Experiments.Table t -> write_csv dir e.id k "table" (Stats.Table.to_csv t)
                | Harness.Experiments.Series s ->
                    write_csv dir e.id k (Stats.Series.title s) (Stats.Series.to_csv s)
                | Harness.Experiments.Note _ -> ())
              artifacts)
      selected
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper-claim tables and figures.")
    Term.(const go $ ids_arg $ csv_arg $ domains_arg $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* batch                                                                *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  (* No --seed: the batch substitutes seeds 1..N by construction. *)
  let go topology horizon crashes detector algo contended seeds domains =
    let scenario =
      make_scenario ~name:"batch" ~topology ~seed:Harness.Scenario.default.seed ~horizon
        ~crashes ~detector ~algo ~contended
    in
    let a = Harness.Batch.run ~seeds ~domains scenario in
    Printf.printf "scenario : %s on %s, seeds 1..%d, horizon %d, %d domain(s)\n" scenario.name
      (Cgraph.Topology.name topology) seeds horizon domains;
    Format.printf "aggregate: %a@." Harness.Batch.pp a
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run one scenario across independent seeds in parallel domains and print the \
          aggregate (bit-identical for any --domains).")
    Term.(
      const go $ topology_arg $ horizon_arg $ crashes_arg $ detector_arg $ algo_arg
      $ contended_arg $ seeds_arg $ domains_arg)

(* ------------------------------------------------------------------ *)
(* trace / tracediff                                                    *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let runs_arg =
    Arg.(
      value
      & opt (positive_int "--runs") 1
      & info [ "runs" ] ~docv:"N"
          ~doc:"Number of runs to capture, at consecutive seeds starting from --seed.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let go topology seed horizon crashes detector algo contended runs domains out =
    let capture k =
      let seed = Int64.add seed (Int64.of_int k) in
      let scenario =
        make_scenario ~name:"trace" ~topology ~seed ~horizon ~crashes ~detector ~algo
          ~contended
      in
      let recorder = Obs.Recorder.collecting () in
      let (_ : Harness.World.report) = Harness.World.run ~recorder scenario in
      let buf = Buffer.create 65536 in
      Buffer.add_string buf
        (Printf.sprintf "# daemon_sim trace: topology=%s algo=%s detector=%s seed=%Ld horizon=%d events=%d\n"
           (Cgraph.Topology.name topology)
           (Harness.Scenario.algo_name scenario.algo)
           (Harness.Scenario.detector_name scenario.detector)
           seed horizon (Obs.Recorder.count recorder));
      Obs.Recorder.iter recorder (fun r -> Obs.Jsonl.append buf r);
      Buffer.contents buf
    in
    (* Each run is a share-nothing world, so capture fans out across
       domains; chunks come back in seed order, keeping the output
       byte-identical for any --domains. *)
    let chunks = Exec.Pool.with_pool ~domains (fun pool -> Exec.Pool.init pool runs capture) in
    let contents = String.concat "" (Array.to_list chunks) in
    match out with
    | None -> print_string contents
    | Some path ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run scenarios under full tracing and export the structured event stream as \
          JSONL (schedule/fire, send/deliver/drop, phases, suspicions, crashes). \
          Byte-identical for equal seeds at any --domains; diff two exports with \
          $(b,tracediff).")
    Term.(
      const go $ topology_arg $ seed_arg $ horizon_arg $ crashes_arg $ detector_arg $ algo_arg
      $ contended_arg $ runs_arg $ domains_arg $ out_arg)

let tracediff_cmd =
  let file_arg pos_i docv =
    Arg.(required & pos pos_i (some non_dir_file) None & info [] ~docv ~doc:"Exported JSONL trace.")
  in
  let context_arg =
    Arg.(
      value & opt int 3
      & info [ "context" ] ~docv:"N" ~doc:"Shared-prefix events to show before the divergence.")
  in
  let go a b context =
    let read path = In_channel.with_open_bin path In_channel.input_all in
    let la = Obs.Diff.lines (read a) and lb = Obs.Diff.lines (read b) in
    match Obs.Diff.first_divergence ~context la lb with
    | None -> Printf.printf "traces identical: %d events\n" (List.length la)
    | Some d ->
        Format.printf "%a@." Obs.Diff.pp d;
        exit 1
  in
  Cmd.v
    (Cmd.info "tracediff"
       ~doc:
         "Compare two exported traces; report the first divergent event with context and \
          exit 1, or exit 0 when byte-identical ('#' header lines ignored). The \
          determinism self-check: traces of equal (scenario, seed) must be identical for \
          any --domains.")
    Term.(const go $ file_arg 0 "TRACE_A" $ file_arg 1 "TRACE_B" $ context_arg)

(* ------------------------------------------------------------------ *)
(* check                                                                *)
(* ------------------------------------------------------------------ *)

let instance_arg =
  Arg.(
    value
    & opt
        (Arg.enum [ ("pair", `Pair); ("path3", `Path3); ("triangle", `Triangle); ("ring4", `Ring4) ])
        `Pair
    & info [ "i"; "instance" ] ~docv:"INST" ~doc:"Instance: pair, path3, triangle, ring4.")

let instance_name = function
  | `Pair -> "pair"
  | `Path3 -> "path3"
  | `Triangle -> "triangle"
  | `Ring4 -> "ring4"

let resolve_instance = function
  | `Pair -> (Cgraph.Graph.of_edges ~n:2 [ (0, 1) ], [| 0; 1 |])
  | `Path3 -> (Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ], [| 0; 1; 0 |])
  | `Triangle -> (Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ], [| 0; 1; 2 |])
  | `Ring4 -> (Cgraph.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ], [| 0; 1; 0; 1 |])

let sessions_arg =
  Arg.(value & opt int 2 & info [ "sessions" ] ~docv:"N" ~doc:"Hungry sessions per process.")

let crash_arg =
  Arg.(value & opt int 0 & info [ "crash-budget" ] ~docv:"N" ~doc:"Crashes allowed.")

let fp_arg =
  Arg.(
    value & opt int 0
    & info [ "fp-budget" ] ~docv:"N" ~doc:"False-suspicion output changes allowed.")

let max_states_arg =
  Arg.(value & opt int 500_000 & info [ "max-states" ] ~docv:"N" ~doc:"State-count cap.")

let check_cmd =
  let max_depth_arg =
    Arg.(
      value & opt int max_int
      & info [ "max-depth" ] ~docv:"N" ~doc:"Schedule/level depth cap (default: unbounded).")
  in
  let dpor_arg =
    Arg.(
      value & flag
      & info [ "dpor" ]
          ~doc:
            "Depth-first search with sleep-set partial-order reduction: same states, same \
             verdict, fewer transitions than the BFS modes.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("none", `None); ("eating", `Eating) ]) `None
      & info [ "inject" ] ~docv:"WHAT"
          ~doc:
            "Inject an artificial invariant violation for exercising the counterexample \
             pipeline: $(b,eating) flags any state where a live process eats (reachable \
             in every sound run).")
  in
  let export_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "export" ] ~docv:"FILE"
          ~doc:"On a violation, write the counterexample schedule to $(docv) as JSONL.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay the schedule in $(docv) (a $(b,--export) file) instead of exploring; \
             exits 1 only if the schedule does not apply to this instance.")
  in
  let go instance sessions crash_budget fp_budget max_states max_depth dpor domains inject
      export replay =
    let graph, colors = resolve_instance instance in
    let cfg = { Mcheck.Model.graph; colors; sessions; crash_budget; fp_budget } in
    let check =
      match inject with
      | `None -> None
      | `Eating ->
          Some
            (fun cfg s ->
              let n = Cgraph.Graph.n cfg.Mcheck.Model.graph in
              let rec go i =
                if i >= n then None
                else if (not (Mcheck.Model.crashed s i)) && Mcheck.Model.phase s i = `Eating
                then Some (Printf.sprintf "injected: process %d eating" i)
                else go (i + 1)
              in
              go 0)
    in
    Printf.printf "instance : %s, sessions=%d, crash-budget=%d, fp-budget=%d%s\n"
      (instance_name instance) sessions crash_budget fp_budget
      (match inject with `None -> "" | `Eating -> ", inject=eating");
    match replay with
    | Some path ->
        let labels = Mcheck.Replay.of_jsonl (In_channel.with_open_bin path In_channel.input_all) in
        Printf.printf "replay   : %s (%d steps)\n" path (List.length labels);
        let outcome = Mcheck.Replay.run ?check cfg labels in
        Format.printf "outcome  : %a@." Mcheck.Replay.pp_outcome outcome;
        (match outcome with Mcheck.Replay.Stuck _ -> exit 1 | _ -> ())
    | None ->
        (* The mode line deliberately omits the domain count: reports of
           the same exploration at different --domains diff clean. *)
        let mode, r =
          if dpor then
            ("dfs + sleep sets", Mcheck.Dpor.explore ~max_states ~max_depth ?check cfg)
          else
            ( "parallel frontier bfs",
              Mcheck.Frontier.explore ~max_states ~max_depth ~domains ?check cfg )
        in
        Printf.printf "mode     : %s\n" mode;
        Format.printf "result   : %a@." Mcheck.Explore.pp_result r;
        (match (r.violation, r.trace) with
        | Some _, Some trace -> (
            Printf.printf "schedule : %s\n" (String.concat " " trace);
            match export with
            | None -> ()
            | Some path ->
                let header =
                  Printf.sprintf
                    "daemon_sim check counterexample: instance=%s sessions=%d \
                     crash-budget=%d fp-budget=%d steps=%d"
                    (instance_name instance) sessions crash_budget fp_budget
                    (List.length trace)
                in
                let oc = open_out path in
                output_string oc (Mcheck.Replay.to_jsonl ~header trace);
                close_out oc;
                Printf.printf "wrote    : %s\n" path)
        | _ -> ());
        if r.violation <> None then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Systematic model checking with budgets: parallel frontier BFS (bit-identical \
          for any --domains) or DPOR ($(b,--dpor)), counterexample schedules exported as \
          JSONL and replayed deterministically with $(b,--replay).")
    Term.(
      const go $ instance_arg $ sessions_arg $ crash_arg $ fp_arg $ max_states_arg
      $ max_depth_arg $ dpor_arg $ domains_arg $ inject_arg $ export_arg $ replay_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                 *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let cases_arg =
    Arg.(
      value
      & opt (positive_int "--cases") 200
      & info [ "cases" ] ~docv:"N" ~doc:"Scenarios to generate and check.")
  in
  let profile_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("sound", Fuzz.Gen.Sound); ("hostile", Fuzz.Gen.Hostile) ]) Fuzz.Gen.Sound
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "$(b,sound) generates scenarios inside the theorems' hypotheses (any failure \
             is a real finding; exit 1); $(b,hostile) also generates baseline daemons \
             and bad detectors, where violations are expected — it exercises the \
             shrink/replay pipeline.")
  in
  let property_arg =
    Arg.(
      value & opt_all string []
      & info [ "p"; "property" ] ~docv:"NAME"
          ~doc:
            "Check only this oracle (repeatable). Known: lemmas, exclusion, \
             wait-freedom, bounded-waiting, channel-bound, quiescence. Default: all.")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the first failure's minimized reproducer to $(docv) as JSONL.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay the reproducer in $(docv) (a $(b,-o) file) instead of fuzzing: re-run \
             its scenario and re-check its property. Exits 0 when the violation \
             reproduces, 1 when the property holds on replay, 2 on a malformed file.")
  in
  let go seed cases domains profile properties no_shrink out replay =
    let properties =
      match properties with
      | [] -> Fuzz.Property.all
      | names ->
          List.map
            (fun name ->
              match Fuzz.Property.find name with
              | Some p -> p
              | None ->
                  Printf.eprintf "unknown property %S (known: %s)\n" name
                    (String.concat ", "
                       (List.map (fun (p : Fuzz.Property.t) -> p.name) Fuzz.Property.all));
                  exit 2)
            names
    in
    match replay with
    | Some path -> (
        match Fuzz.Repro.of_jsonl (In_channel.with_open_bin path In_channel.input_all) with
        | Error msg ->
            Printf.eprintf "cannot parse %s: %s\n" path msg;
            exit 2
        | Ok (scenario, property) -> (
            match Fuzz.Property.find property with
            | None ->
                Printf.eprintf "reproducer names unknown property %S\n" property;
                exit 2
            | Some p ->
                Printf.printf "replay   : %s\n" path;
                Printf.printf "scenario : %s\n" (Fuzz.Repro.describe scenario);
                let outcome = Fuzz.Repro.replay p scenario in
                Format.printf "outcome  : %a@." Fuzz.Repro.pp_outcome outcome;
                (match outcome with Fuzz.Repro.Clean _ -> exit 1 | Fuzz.Repro.Reproduced _ -> ())))
    | None ->
        let report =
          Fuzz.Campaign.run ~domains ~profile ~properties ~shrink:(not no_shrink) ~seed
            ~cases ()
        in
        Format.printf "%a" Fuzz.Campaign.pp report;
        (match (out, report.failures) with
        | Some path, f :: _ ->
            let header =
              Printf.sprintf "daemon_sim fuzz reproducer: campaign seed=%Ld profile=%s case=%d"
                seed (Fuzz.Gen.profile_name profile) f.case
            in
            let oc = open_out path in
            output_string oc
              (Fuzz.Repro.to_jsonl ~header ~property:f.property ~message:f.shrunk_message
                 f.shrunk);
            close_out oc;
            Printf.printf "wrote %s\n" path
        | Some path, [] -> Printf.printf "no failures; %s not written\n" path
        | None, _ -> ());
        if profile = Fuzz.Gen.Sound && report.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based fuzzing: generate whole scenarios from one campaign seed, check \
          the paper's oracles on each, minimize any failure by delta debugging and export \
          it as a replayable JSONL reproducer. The report is bit-identical for any \
          --domains.")
    Term.(
      const go $ seed_arg $ cases_arg $ domains_arg $ profile_arg $ property_arg
      $ no_shrink_arg $ out_arg $ replay_arg)

(* ------------------------------------------------------------------ *)
(* stabilize                                                            *)
(* ------------------------------------------------------------------ *)

let stabilize_cmd =
  let protocol_arg =
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("coloring", Harness.Run_stabilize.Coloring);
               ("token-ring", Harness.Run_stabilize.Token_ring);
               ("matching", Harness.Run_stabilize.Matching);
               ("bfs-tree", Harness.Run_stabilize.Bfs_tree);
             ])
          Harness.Run_stabilize.Coloring
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"coloring, token-ring, matching or bfs-tree.")
  in
  let transients_arg =
    Arg.(
      value & opt int 2
      & info [ "transients" ] ~docv:"N" ~doc:"Number of transient-fault injections.")
  in
  let go topology seed horizon crashes detector protocol transients =
    let spec =
      {
        Harness.Run_stabilize.protocol;
        transient_faults =
          List.init transients (fun k -> ((horizon * (k + 2)) / (transients + 3), 4));
        scenario =
          {
            Harness.Scenario.default with
            name = "stabilize";
            topology;
            seed;
            horizon;
            detector = resolve_detector detector;
            crashes =
              (if crashes = 0 then Harness.Scenario.No_crashes
               else
                 Harness.Scenario.Random_crashes
                   { count = crashes; from_t = horizon / 20; to_t = horizon / 5 });
          };
      }
    in
    let r = Harness.Run_stabilize.run spec in
    Printf.printf "protocol     : %s on %s, daemon song-pike + %s\n"
      (Harness.Run_stabilize.protocol_name protocol)
      (Cgraph.Topology.name topology)
      (Harness.Scenario.detector_name spec.scenario.detector);
    Printf.printf "crashes      : %s\n"
      (if r.crashed = [] then "none"
       else String.concat ", " (List.map (fun (p, t) -> Printf.sprintf "p%d@%d" p t) r.crashed));
    Printf.printf "transients   : %s\n"
      (String.concat ", "
         (List.map (fun (t, v) -> Printf.sprintf "%d@%d" v t) spec.transient_faults));
    Printf.printf "steps        : %d guarded commands executed, %d CS overlaps\n"
      r.outcome.steps_executed r.outcome.overlap_races;
    (match r.outcome.converged_at with
    | Some t -> Printf.printf "converged    : yes, legitimate from %d to the horizon\n" t
    | None -> Printf.printf "converged    : NO (final error %d)\n" r.outcome.final_error);
    Printf.printf "invariants   : %s\n" (Option.value r.invariant_error ~default:"ok")
  in
  Cmd.v
    (Cmd.info "stabilize"
       ~doc:"Drive a self-stabilizing protocol through the daemon under faults.")
    Term.(
      const go $ topology_arg $ seed_arg $ horizon_arg $ crashes_arg $ detector_arg
      $ protocol_arg $ transients_arg)

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "daemon_sim" ~version:"1.0.0"
       ~doc:
         "Wait-free, eventually 2-bounded dining daemons with an eventually perfect \
          failure detector (Song & Pike, DSN 2007) — simulator, baselines, experiments \
          and model checker.")
    [ run_cmd; batch_cmd; trace_cmd; tracediff_cmd; experiments_cmd; check_cmd; fuzz_cmd; stabilize_cmd ]

let () = exit (Cmd.eval main)
