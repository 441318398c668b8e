(* Prints the full JSONL trace of a dining run on a conflict graph with
   isolated vertices (pids 2 and 6: empty CSR rows) and degree-1
   vertices (pids 0, 3 and 5), followed by the per-process state dump.
   The process table lays each pid's state directly before its row of
   slot records, so these are the rows whose neighbours in memory are
   another pid's state or nothing at all. Pid 4 crashes, so messages
   are absorbed and suspected neighbours skipped; a scripted false
   positive makes pid 1 suspect pid 3 for a while. *)

let () =
  let n = 7 in
  let graph = Cgraph.Graph.of_edges ~n [ (0, 1); (1, 3); (1, 4); (4, 5) ] in
  let recorder = Obs.Recorder.collecting () in
  let engine = Sim.Engine.create ~recorder () in
  let faults = Net.Faults.create engine ~n in
  let _, detector =
    Fd.Oracle.create engine faults graph ~detection_delay:20
      ~false_positives:[ { observer = 1; target = 3; from_t = 15; till_t = 35 } ]
      ()
  in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Uniform (1, 6))
      ~rng:(Sim.Rng.create 11L) ~detector ()
  in
  let inst = Dining.Algorithm.instance algo in
  (* Each process eats for 4 ticks and turns hungry again 3 ticks after
     it stops, until tick 80. *)
  inst.add_listener (fun pid phase ->
      match phase with
      | Dining.Types.Eating ->
          Sim.Engine.schedule_after engine ~delay:4 (fun () -> inst.stop_eating pid)
      | Dining.Types.Thinking ->
          if Sim.Engine.now engine < 80 then
            Sim.Engine.schedule_after engine ~delay:3 (fun () -> inst.become_hungry pid)
      | Dining.Types.Hungry -> ());
  for pid = 0 to n - 1 do
    Sim.Engine.schedule engine ~at:pid (fun () -> inst.become_hungry pid)
  done;
  Net.Faults.schedule_crash faults ~pid:4 ~at:40;
  for k = 1 to 10 do
    Sim.Engine.schedule engine ~at:(k * 10) (fun () -> inst.check_invariants ())
  done;
  Sim.Engine.run_all engine;
  print_string (Obs.Jsonl.of_records (Obs.Recorder.records recorder));
  Dining.Algorithm.pp_global algo Format.std_formatter ();
  for pid = 0 to n - 1 do
    Printf.printf "p%d color=%d eats=%d\n" pid (Dining.Algorithm.color algo pid)
      (Dining.Algorithm.eat_count algo pid)
  done;
  let stats = Dining.Algorithm.network_stats algo in
  Printf.printf "eats=%d sent=%d delivered=%d dropped=%d watermark=%d\n"
    (Dining.Algorithm.total_eats algo) (Net.Link_stats.total_sent stats)
    (Net.Link_stats.total_delivered stats) (Net.Link_stats.total_dropped stats)
    (Net.Link_stats.max_edge_watermark stats)
