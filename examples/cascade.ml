(* The cascade: why "no recourse to crash detection" dooms a ring.

   The original Choy-Singh asynchronous doorway algorithm (here:
   Algorithm 1 with the Never detector) is safe but not wait-free. Watch
   what one crash does to a 12-ring over time: the victims' neighbors
   block outside the doorway waiting for acks; their own deferred acks
   then block *their* neighbors, and starvation spreads around the entire
   ring. Then the same run with evp-P1: the wave never starts.

   Run with: dune exec examples/cascade.exe *)

let snapshot_times = [ 1_600; 2_400; 3_600; 6_000; 12_000; 48_000 ]

let run detector label =
  let scenario =
    {
      Harness.Scenario.default with
      name = label;
      topology = Cgraph.Topology.Ring 12;
      seed = 31L;
      detector;
      workload = { think = (20, 120); eat = (10, 30) };
      crashes = Harness.Scenario.Crash_at [ (0, 1_000) ];
      horizon = 50_000;
    }
  in
  (* Sample "who has eaten in the last 4000 ticks" at snapshot times. *)
  let last_eat = Array.make 12 (-1) in
  let rows = ref [] in
  let parts = Harness.Setup.build scenario in
  parts.instance.add_listener (fun pid phase ->
      if phase = Dining.Types.Eating then last_eat.(pid) <- Sim.Engine.now parts.engine);
  let _workload =
    Harness.Workload.attach ~engine:parts.engine ~faults:parts.faults ~n:12
      ~rng:(Sim.Rng.create 8L) ~workload:scenario.workload parts.instance
  in
  List.iter
    (fun t ->
      Sim.Engine.schedule parts.engine ~at:t (fun () ->
          let line =
            String.concat ""
              (List.init 12 (fun pid ->
                   if Net.Faults.is_crashed parts.faults pid then "X"
                   else if last_eat.(pid) >= t - 1_200 then "#"
                   else "."))
          in
          rows := (t, line) :: !rows))
    snapshot_times;
  Sim.Engine.run parts.engine ~until:scenario.horizon;
  Printf.printf "%s\n" label;
  Printf.printf "  ring position:  %s\n" (String.concat "" (List.init 12 (fun i -> string_of_int (i mod 10))));
  List.iter (fun (t, line) -> Printf.printf "  t=%6d        %s\n" t line) (List.rev !rows);
  print_newline ()

let () =
  print_endline
    "Ring of 12 diners; diner 0 crashes at t=1000. '#' = ate within the last 1200\n\
     ticks, '.' = starving, 'X' = crashed.\n";
  run Harness.Scenario.Never "WITHOUT crash detection (Choy-Singh / Never detector):";
  run
    (Harness.Scenario.Oracle
       { detection_delay = 50; fp_per_edge = 0; fp_window = 0; fp_max_len = 1 })
    "WITH evp-P1 (Algorithm 1):";
  print_endline
    "The starvation wave spreads from the crash site until the whole ring is dark —\n\
     and with it, any self-stabilizing protocol scheduled by this daemon loses its\n\
     convergence guarantee. The oracle run keeps every live diner eating forever."
