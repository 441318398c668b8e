(* Fairness duel: what the asynchronous doorway buys.

   The same saturated 6-clique is scheduled by (a) Algorithm 1 and (b) the
   doorway-less ablation that collects forks by static priority alone.
   Both use the same accurate oracle; the only difference is phase 1.

   Algorithm 1 keeps every diner within 2 consecutive overtakes
   (Theorem 3); the ablation lets high priorities lap the lowest diner
   hundreds of times and starves it outright.

   Run with: dune exec examples/fairness_duel.exe *)

let duel algo label =
  let scenario =
    {
      Harness.Scenario.default with
      name = label;
      topology = Cgraph.Topology.Clique 6;
      seed = 17L;
      algo;
      detector = Harness.Scenario.quiet_oracle;
      workload = Harness.Scenario.contended_workload;
      crashes = Harness.Scenario.No_crashes;
      horizon = 60_000;
    }
  in
  (scenario, Harness.World.run scenario)

let () =
  print_endline "Saturated 6-clique, 60k ticks: every diner is hungry again immediately.\n";
  let table =
    Stats.Table.create ~title:"doorway vs no doorway"
      ~columns:
        [
          ("daemon", Stats.Table.Left);
          ("meals(total)", Stats.Table.Right);
          ("per-diner meals", Stats.Table.Left);
          ("max consecutive overtakes", Stats.Table.Right);
          ("starved diners", Stats.Table.Left);
        ]
  in
  List.iter
    (fun (algo, label) ->
      let _, r = duel algo label in
      let starved = Harness.World.starved r in
      Stats.Table.add_row table
        [
          label;
          Stats.Table.cell_int r.total_eats;
          String.concat "/" (Array.to_list (Array.map string_of_int r.eats_per_process));
          Stats.Table.cell_int (Monitor.Fairness.max_consecutive r.fairness);
          (if starved = [] then "none" else String.concat "," (List.map string_of_int starved));
        ])
    [
      (Harness.Scenario.Song_pike, "song-pike (doorway)");
      (Harness.Scenario.Fork_only, "fork-only (no doorway)");
    ];
  Format.printf "%a@?" Stats.Table.pp table;
  print_endline
    "The doorway trades a little throughput for the eventual 2-bounded-waiting\n\
     guarantee: without it, the lowest-colored diners are overtaken without bound\n\
     and can starve under saturation even with zero faults."
