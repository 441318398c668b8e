(* The paper's motivating application: a self-stabilizing protocol that
   keeps converging because its daemon is wait-free.

   A 4x6 grid runs self-stabilizing graph coloring, scheduled by
   Algorithm 1 over an evp-P1 oracle. Two processes crash early; two
   transient faults later corrupt random states. The grid is printed
   whenever its conflict count changes, so you can watch it heal.

   Run with: dune exec examples/stabilizing_coloring.exe *)

let rows = 4
let cols = 6

let render states faults n =
  for r = 0 to rows - 1 do
    print_string "    ";
    for c = 0 to cols - 1 do
      let pid = (r * cols) + c in
      if pid < n && Net.Faults.is_crashed faults pid then Printf.printf "[%d]" states.(pid)
      else Printf.printf " %d " states.(pid)
    done;
    print_newline ()
  done

let () =
  let graph = Cgraph.Topology.build (Cgraph.Topology.Grid (rows, cols)) in
  let n = Cgraph.Graph.n graph in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n in
  let rng = Sim.Rng.create 7L in
  let _, detector = Fd.Oracle.create engine faults graph ~detection_delay:40 () in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph
      ~delay:(Net.Delay.Uniform (1, 6))
      ~rng:(Sim.Rng.split_named rng "net")
      ~detector ()
  in
  let protocol = Stabilize.Coloring_protocol.make ~graph in
  let scheduler =
    Stabilize.Scheduler.attach ~engine ~faults ~graph
      ~rng:(Sim.Rng.split_named rng "daemon")
      ~protocol
      (Dining.Algorithm.instance algo)
  in
  Net.Faults.schedule_crash faults ~pid:8 ~at:1_500;
  Net.Faults.schedule_crash faults ~pid:15 ~at:2_500;
  Stabilize.Scheduler.schedule_faults scheduler ~at:[ 6_000; 12_000 ] ~victims:5;

  let last_err = ref (-1) in
  let snapshot label =
    let err = Stabilize.Scheduler.error_now scheduler in
    if err <> !last_err then begin
      last_err := err;
      Printf.printf "t=%6d  %-28s conflict edges: %d\n" (Sim.Engine.now engine) label err;
      render (Stabilize.Scheduler.states scheduler) faults n;
      print_newline ()
    end
  in
  Printf.printf "Self-stabilizing coloring on a %dx%d grid (crashed cells in [brackets]).\n\n"
    rows cols;
  snapshot "arbitrary initial state";
  let rec watch () =
    snapshot "";
    if Sim.Engine.now engine < 20_000 then
      Sim.Engine.schedule_after engine ~delay:100 watch
  in
  Sim.Engine.schedule engine ~at:100 watch;
  Sim.Engine.run engine ~until:20_000;
  snapshot "final";
  let o = Stabilize.Scheduler.outcome scheduler in
  (match o.converged_at with
  | Some t ->
      Printf.printf
        "Converged: legitimate from t=%d through the end, despite 2 crashes and 2\n\
         transient faults — because every live hungry process kept getting scheduled.\n"
        t
  | None -> Printf.printf "Did not converge (unexpected with the oracle daemon).\n");
  Printf.printf "Guarded commands executed: %d; critical-section overlaps: %d.\n"
    o.steps_executed o.overlap_races
