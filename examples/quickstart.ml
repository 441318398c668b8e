(* Quickstart: five dining philosophers, one of whom crashes while
   holding a fork — and nobody starves.

   This walks the public API end to end:
   1. build a conflict graph (Dijkstra's original ring of 5);
   2. wire an engine, a crash plan, a scripted evp-P1 oracle and
      Algorithm 1;
   3. drive the think/hungry/eat cycle with the workload helper;
   4. watch the run through a trace sink and the monitors.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let scenario =
    {
      Harness.Scenario.default with
      name = "quickstart";
      topology = Cgraph.Topology.Ring 5;
      seed = 2026L;
      delay = Net.Delay.Uniform (1, 6);
      detector =
        Harness.Scenario.Oracle
          { detection_delay = 40; fp_per_edge = 0; fp_window = 0; fp_max_len = 1 };
      workload = { think = (30, 120); eat = (10, 30) };
      (* Philosopher 2 dies at the table at t = 1500. *)
      crashes = Harness.Scenario.Crash_at [ (2, 1_500) ];
      horizon = 6_000;
    }
  in
  (* A trace sink prints the first part of the timeline live. *)
  let recorder = Obs.Recorder.create () in
  let printed = ref 0 in
  Obs.Recorder.on_record recorder (fun r ->
      if
        (not (Obs.Record.structural r.kind))
        && (r.time < 400 || (r.time >= 1_400 && r.time < 1_900))
      then begin
        incr printed;
        Format.printf "%a@." Obs.Record.pp_row r
      end);
  Format.printf "--- timeline excerpts (start of run, and around the crash) ---@.";
  let r = Harness.World.run ~recorder scenario in
  Format.printf "--- end of excerpts (%d lines) ---@.@." !printed;

  let summary = Monitor.Response.summary r.response in
  Format.printf "philosophers    : 5 in a ring; philosopher 2 crashed at t=1500@.";
  Format.printf "meals served    : %d (per philosopher: %s)@." r.total_eats
    (String.concat ", " (Array.to_list (Array.map string_of_int r.eats_per_process)));
  Format.printf "hungry -> eating: mean %.0f ticks, worst %.0f@." summary.mean summary.max;
  (match Harness.World.starved r ~older_than:2_000 with
  | [] -> Format.printf "starvation      : none — the daemon is wait-free@."
  | l ->
      Format.printf "starvation      : %s (unexpected!)@."
        (String.concat "," (List.map string_of_int l)));
  Format.printf "exclusion       : %d violations (oracle never lied in this run)@."
    (Monitor.Exclusion.count r.exclusion);
  Format.printf "channel bound   : max %d messages in flight on any edge (paper: <= 4)@."
    (Net.Link_stats.max_edge_watermark r.link_stats);
  Format.printf "invariants      : %s@."
    (Option.value r.invariant_error ~default:"all executable lemmas held");
  Format.printf
    "@.Try flipping the detector to Never (the Choy-Singh baseline) in this file:@.\
     philosophers 1 and 3 will starve behind the corpse of philosopher 2.@."
