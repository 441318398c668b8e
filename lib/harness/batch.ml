type aggregate = {
  runs : int;
  total_eats : Stats.Summary.t;
  response_mean : Stats.Summary.t;
  response_p99 : Stats.Summary.t;
  violations : Stats.Summary.t;
  violations_after_conv_total : int;
  max_overtakes_after_conv : int;
  starved_total : int;
  worst_edge_watermark : int;
  invariant_errors : string list;
}

let run ?(seeds = 10) ?domains ?patience (scenario : Scenario.t) =
  if seeds <= 0 then invalid_arg "Batch.run: seeds must be positive";
  (* Each seed is an independent World; the pool spreads them across
     domains. Reports come back indexed by seed, so every aggregate below
     folds the same list in the same order no matter how many domains
     ran — parallel output is bit-identical to sequential output. *)
  let reports =
    Exec.Pool.with_pool ?domains (fun pool ->
        Exec.Pool.init pool seeds (fun k ->
            World.run { scenario with seed = Int64.of_int (k + 1) }))
    |> Array.to_list
  in
  let patience =
    match patience with Some p -> p | None -> scenario.horizon / 4
  in
  let per f = List.map f reports in
  {
    runs = seeds;
    total_eats = Stats.Summary.of_ints (per (fun (r : World.report) -> r.total_eats));
    response_mean =
      Stats.Summary.of_floats (per (fun r -> (Monitor.Response.summary r.response).mean));
    response_p99 =
      Stats.Summary.of_floats (per (fun r -> (Monitor.Response.summary r.response).p99));
    violations = Stats.Summary.of_ints (per (fun r -> Monitor.Exclusion.count r.exclusion));
    violations_after_conv_total =
      List.fold_left ( + ) 0
        (per (fun r -> Monitor.Exclusion.count_after r.exclusion r.convergence));
    max_overtakes_after_conv =
      List.fold_left max 0
        (per (fun r -> Monitor.Fairness.max_consecutive_for_sessions_from r.fairness r.convergence));
    starved_total =
      List.fold_left ( + ) 0 (per (fun r -> List.length (World.starved r ~older_than:patience)));
    worst_edge_watermark =
      List.fold_left max 0 (per (fun r -> Net.Link_stats.max_edge_watermark r.link_stats));
    invariant_errors = List.filter_map (fun (r : World.report) -> r.invariant_error) reports;
  }

let pp ppf a =
  Format.fprintf ppf
    "%d runs: eats %.0f±%.0f, resp mean %.1f, p99 %.1f, violations/run %.1f (after conv: %d \
     total), overtakes<=%d, starved %d, watermark %d, invariant errors %d"
    a.runs a.total_eats.mean a.total_eats.stddev a.response_mean.mean a.response_p99.mean
    a.violations.mean a.violations_after_conv_total a.max_overtakes_after_conv a.starved_total
    a.worst_edge_watermark
    (List.length a.invariant_errors)
