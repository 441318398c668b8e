(* Fault storm: a 40-process random conflict graph loses a third of its
   processes to crashes — under the heartbeat-implemented evp-P1 detector and
   partial synchrony — and the survivors never miss a meal.

   Demonstrates, in one run:
   - wait-freedom under many crashes (Theorem 2), with a real
     message-based failure detector rather than a scripted oracle;
   - eventual weak exclusion: violations (if any) stop once the adaptive
     timeouts outgrow the post-GST delay bound (Theorem 1);
   - quiescence: traffic toward every crashed process dies out
     (Section 7).

   Run with: dune exec examples/fault_storm.exe *)

let () =
  let n = 40 in
  let gst = 20_000 in
  let horizon = 120_000 in
  let scenario =
    {
      Harness.Scenario.default with
      name = "fault-storm";
      topology = Cgraph.Topology.Random_gnp (n, 0.12, 99L);
      seed = 4242L;
      delay = Net.Delay.Partial_synchrony { gst; pre = (1, 90); post = (1, 7) };
      detector = Harness.Scenario.default_heartbeat;
      workload = { think = (10, 150); eat = (5, 40) };
      crashes = Harness.Scenario.Random_crashes { count = 13; from_t = 2_000; to_t = 60_000 };
      horizon;
    }
  in
  Printf.printf "Storm: %d processes, %d crashes, GST at %d, horizon %d.\n\n" n 13 gst horizon;
  let r = Harness.World.run scenario in
  Printf.printf "crashes         : %s\n"
    (String.concat ", " (List.map (fun (p, t) -> Printf.sprintf "p%d@%d" p t) r.crashed));
  Printf.printf "meals served    : %d across %d survivors\n" r.total_eats
    (n - List.length r.crashed);
  let starved = Harness.World.starved r in
  Printf.printf "starved         : %s\n"
    (if starved = [] then "none — wait-free through the storm"
     else String.concat "," (List.map string_of_int starved));
  Printf.printf "detector        : %d false suspicions, last at t=%s\n" r.detector_mistakes
    (Stats.Table.cell_time r.convergence);
  Printf.printf "exclusion       : %d violations, %d after the detector settled (t=%d)\n"
    (Monitor.Exclusion.count r.exclusion)
    (Harness.World.late_violations r) (Harness.World.settle_cutoff r);
  Printf.printf "channel bound   : max %d in flight per edge (paper: 4)\n"
    (Net.Link_stats.max_edge_watermark r.link_stats);
  Printf.printf "invariants      : %s\n\n"
    (Option.value r.invariant_error ~default:"all executable lemmas held");
  (* Quiescence: when the last dining message to each victim was sent. *)
  Printf.printf "quiescence (last dining message sent to each victim):\n";
  List.iter
    (fun (pid, at) ->
      match Net.Link_stats.last_send_to r.link_stats pid with
      | Some last ->
          Printf.printf "  p%-3d crashed@%-6d  last msg@%-6d  %+d ticks after the crash\n" pid at
            last (last - at)
      | None -> Printf.printf "  p%-3d crashed@%-6d  never sent to\n" pid at)
    r.crashed;
  Printf.printf "\n(every last message within 3000 ticks of the crash = quiescent.)\n"
