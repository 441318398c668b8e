(* Tests for the baseline daemons, the three rules of Baselines.Forks:
   Fork_only (doorway ablation), Chandy_misra (hygienic dining) and
   Ordered (hierarchical total-order allocation). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module Forks = Baselines.Forks

type rig = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  inst : Dining.Instance.t;
  eats : int array;
}

let rig rule ?(edges = [ (0, 1) ]) ?(n = 2) ?(delay = Net.Delay.Fixed 3) ?(detector = `Never) ()
    =
  let graph = Cgraph.Graph.of_edges ~n edges in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n in
  let det =
    match detector with
    | `Never -> Fd.Never.create ()
    | `Oracle -> snd (Fd.Oracle.create engine faults graph ~detection_delay:20 ())
  in
  let rng = Sim.Rng.create 3L in
  let inst =
    Forks.instance (Forks.create ~rule ~engine ~faults ~graph ~delay ~rng ~detector:det ())
  in
  let eats = Array.make n 0 in
  inst.add_listener (fun pid phase ->
      if phase = Dining.Types.Eating then eats.(pid) <- eats.(pid) + 1);
  { engine; faults; inst; eats }

let auto_stop ?(duration = 5) r =
  r.inst.add_listener (fun pid phase ->
      if phase = Dining.Types.Eating then
        ignore (Sim.Engine.schedule_after r.engine ~delay:duration (fun () -> r.inst.stop_eating pid)))

let auto_rehungry ?(gap = 2) r pid =
  r.inst.add_listener (fun p phase ->
      if p = pid && phase = Dining.Types.Thinking then
        ignore (Sim.Engine.schedule_after r.engine ~delay:gap (fun () -> r.inst.become_hungry pid)))

let exclusion_holds r graph_edges horizon =
  let eating = Hashtbl.create 8 in
  let overlap = ref false in
  r.inst.add_listener (fun pid phase ->
      (match phase with
      | Dining.Types.Eating ->
          List.iter
            (fun (a, b) ->
              let other = if a = pid then Some b else if b = pid then Some a else None in
              match other with
              | Some o when Hashtbl.mem eating o -> overlap := true
              | _ -> ())
            graph_edges;
          Hashtbl.replace eating pid ()
      | _ -> Hashtbl.remove eating pid));
  Sim.Engine.run r.engine ~until:horizon;
  not !overlap

(* ----------------------------- Fork_only --------------------------- *)

let fork_only_progress_and_exclusion () =
  let r = rig Fork_only () in
  auto_stop r;
  auto_rehungry r 0;
  auto_rehungry r 1;
  r.inst.become_hungry 0;
  r.inst.become_hungry 1;
  let ok = exclusion_holds r [ (0, 1) ] 5_000 in
  check bool "exclusion holds without oracle mistakes" true ok;
  check bool "both eat" true (r.eats.(0) > 10 && r.eats.(1) > 10);
  r.inst.check_invariants ()

let fork_only_unbounded_overtaking () =
  (* Saturated triangle: the lowest-priority diner needs both forks at
     once, but its higher-priority neighbors keep snatching them in
     alternation — overtaking far beyond Algorithm 1's bound of 2. (On a
     pair the deferred fork is flushed at exit, so >= 3 diners are needed
     to expose this.) *)
  let r = rig Fork_only ~edges:[ (0, 1); (1, 2); (0, 2) ] ~n:3 () in
  auto_stop ~duration:5 r;
  List.iter (fun p -> auto_rehungry ~gap:1 r p) [ 0; 1; 2 ];
  let hungry0 = ref false and streak = ref 0 and worst = ref 0 in
  r.inst.add_listener (fun pid phase ->
      match (pid, phase) with
      | 0, Dining.Types.Hungry -> hungry0 := true
      | 0, Dining.Types.Eating ->
          hungry0 := false;
          streak := 0
      | (1 | 2), Dining.Types.Eating ->
          if !hungry0 then begin
            incr streak;
            worst := max !worst !streak
          end
      | _ -> ());
  List.iter r.inst.become_hungry [ 0; 1; 2 ];
  Sim.Engine.run r.engine ~until:10_000;
  check bool "overtaking far beyond the k=2 bound" true (!worst > 10);
  check bool "lowest priority squeezed" true (r.eats.(0) * 4 < r.eats.(2))

let fork_only_crash_tolerant_with_oracle () =
  let r = rig Fork_only ~detector:`Oracle () in
  auto_stop r;
  Net.Faults.schedule_crash r.faults ~pid:1 ~at:5;
  ignore (Sim.Engine.schedule r.engine ~at:10 (fun () -> r.inst.become_hungry 0));
  Sim.Engine.run r.engine ~until:1_000;
  check bool "eats past the crash via suspicion" true (r.eats.(0) >= 1)

(* ---------------------------- Chandy-Misra -------------------------- *)

let cm_progress_and_exclusion () =
  let r = rig Chandy_misra ~edges:[ (0, 1); (1, 2); (0, 2) ] ~n:3 () in
  auto_stop r;
  List.iter (fun p -> auto_rehungry r p) [ 0; 1; 2 ];
  List.iter r.inst.become_hungry [ 0; 1; 2 ];
  let ok = exclusion_holds r [ (0, 1); (1, 2); (0, 2) ] 5_000 in
  check bool "exclusion" true ok;
  check bool "everyone eats" true (Array.for_all (fun e -> e > 10) r.eats);
  r.inst.check_invariants ()

let cm_fair_under_saturation () =
  (* Dynamic priorities: under saturation, neither neighbor can be
     overtaken more than a constant number of times. *)
  let r = rig Chandy_misra () in
  auto_stop ~duration:5 r;
  auto_rehungry ~gap:1 r 0;
  auto_rehungry ~gap:1 r 1;
  let hungry0 = ref None and overtakes = ref 0 and worst = ref 0 in
  r.inst.add_listener (fun pid phase ->
      match (pid, phase) with
      | 0, Dining.Types.Hungry -> hungry0 := Some ()
      | 0, Dining.Types.Eating ->
          hungry0 := None;
          overtakes := 0
      | 1, Dining.Types.Eating ->
          if !hungry0 <> None then begin
            incr overtakes;
            worst := max !worst !overtakes
          end
      | _ -> ());
  r.inst.become_hungry 0;
  r.inst.become_hungry 1;
  Sim.Engine.run r.engine ~until:10_000;
  check bool "both eat a lot" true (r.eats.(0) > 100 && r.eats.(1) > 100);
  check bool "bounded overtaking (hygienic)" true (!worst <= 2)

let cm_initial_forks_acyclic () =
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:3 in
  let cm =
    Forks.create ~rule:Chandy_misra ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 1)
      ~rng:(Sim.Rng.create 1L) ~detector:(Fd.Never.create ()) ()
  in
  (* Forks start at the lower-id endpoint, dirty. *)
  check bool "fork at lower id" true (Forks.holds_fork cm 0 1);
  check bool "dirty initially" false (Forks.fork_clean cm 0 1);
  check bool "not at higher id" false (Forks.holds_fork cm 1 0)

let cm_hygiene_cycle () =
  (* Watch one fork's hygiene through a full request cycle on a pair. *)
  let graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:2 in
  let cm =
    Forks.create ~rule:Chandy_misra ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 2)
      ~rng:(Sim.Rng.create 1L) ~detector:(Fd.Never.create ()) ()
  in
  let inst = Forks.instance cm in
  (* Fork starts dirty at 0 (lower id). 1 gets hungry and requests it. *)
  inst.become_hungry 1;
  Sim.Engine.run engine ~until:3;
  (* Request delivered at t=2: the dirty fork must be yielded... *)
  check bool "dirty fork yielded" false (Forks.holds_fork cm 0 1);
  Sim.Engine.run engine ~until:5;
  (* The fork arrived (clean) and enabled eating in the same instant;
     eating immediately soils it again. *)
  check bool "holder eats on arrival" true (inst.phase 1 = Dining.Types.Eating);
  check bool "eating soils the fork" false (Forks.fork_clean cm 1 0);
  (* While eating, a request from 0 is deferred; after exit it is granted. *)
  inst.become_hungry 0;
  Sim.Engine.run engine ~until:12;
  check bool "request deferred while eating" true (Forks.holds_fork cm 1 0);
  inst.stop_eating 1;
  Sim.Engine.run engine ~until:20;
  check bool "deferred grant after exit" true (inst.phase 0 = Dining.Types.Eating)

let ordered_suspicion_skips_rank () =
  (* The locked-prefix pointer advances past a suspected neighbor. *)
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:3 in
  let _, detector = Fd.Oracle.create engine faults graph ~detection_delay:10 () in
  let algo =
    Forks.create ~rule:Ordered ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 3)
      ~rng:(Sim.Rng.create 1L) ~detector ()
  in
  let inst = Forks.instance algo in
  (* 0 holds fork (0,1); 1 needs both its forks; crash 0 so rank-first
     edge (0,1) can only be passed by suspicion. *)
  Net.Faults.schedule_crash faults ~pid:0 ~at:2;
  ignore (Sim.Engine.schedule engine ~at:5 (fun () -> inst.become_hungry 1));
  Sim.Engine.run engine ~until:100;
  check Alcotest.int "prefix covers both edges" 2 (Forks.progress algo 1);
  check bool "eats past the crash" true (inst.phase 1 = Dining.Types.Eating)

let cm_starves_without_oracle_on_crash () =
  let r = rig Chandy_misra () in
  auto_stop r;
  (* 0 holds both forks initially in a pair; crash it so 1 can never
     collect. *)
  Net.Faults.schedule_crash r.faults ~pid:0 ~at:5;
  ignore (Sim.Engine.schedule r.engine ~at:10 (fun () -> r.inst.become_hungry 1));
  Sim.Engine.run r.engine ~until:10_000;
  check int "1 starves" 0 r.eats.(1)

(* ------------------------------ Ordered ----------------------------- *)

let ordered_progress_and_exclusion () =
  let r = rig Ordered ~edges:[ (0, 1); (1, 2); (0, 2); (2, 3) ] ~n:4 () in
  auto_stop r;
  List.iter (fun p -> auto_rehungry r p) [ 0; 1; 2; 3 ];
  List.iter r.inst.become_hungry [ 0; 1; 2; 3 ];
  let ok = exclusion_holds r [ (0, 1); (1, 2); (0, 2); (2, 3) ] 8_000 in
  check bool "exclusion" true ok;
  check bool "everyone eats (deadlock-free without priorities)" true
    (Array.for_all (fun e -> e > 10) r.eats);
  r.inst.check_invariants ()

let ordered_no_starvation_under_saturation () =
  (* Unlike fork-only, the total-order scheme serves everyone even when
     saturated — locks are released after every meal. *)
  let r = rig Ordered ~edges:[ (0, 1); (1, 2); (0, 2) ] ~n:3 () in
  auto_stop ~duration:5 r;
  List.iter (fun p -> auto_rehungry ~gap:1 r p) [ 0; 1; 2 ];
  List.iter r.inst.become_hungry [ 0; 1; 2 ];
  Sim.Engine.run r.engine ~until:10_000;
  check bool "all served" true (Array.for_all (fun e -> e > 50) r.eats)

let ordered_acquires_in_rank_order () =
  (* A hungry process on a path acquires its lower-ranked edge first. *)
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:3 in
  let algo =
    Forks.create ~rule:Ordered ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 3)
      ~rng:(Sim.Rng.create 1L) ~detector:(Fd.Never.create ()) ()
  in
  let inst = Forks.instance algo in
  inst.become_hungry 1;
  (* Edge (0,1) outranks (1,2); process 1 starts with fork (1,2) only
     (forks start at lower endpoints), so it must fetch (0,1) first and
     only then lock both. *)
  Sim.Engine.run engine ~until:100;
  check Alcotest.int "locked both in order" 2 (Forks.progress algo 1);
  check bool "eating" true (inst.phase 1 = Dining.Types.Eating)

let ordered_crash_tolerant_with_oracle () =
  let r = rig Ordered ~detector:`Oracle () in
  auto_stop r;
  Net.Faults.schedule_crash r.faults ~pid:0 ~at:5;
  ignore (Sim.Engine.schedule r.engine ~at:10 (fun () -> r.inst.become_hungry 1));
  Sim.Engine.run r.engine ~until:1_000;
  check bool "eats past the crash via suspicion" true (r.eats.(1) >= 1)

let ordered_starves_without_oracle_on_crash () =
  let r = rig Ordered () in
  auto_stop r;
  Net.Faults.schedule_crash r.faults ~pid:0 ~at:5;
  ignore (Sim.Engine.schedule r.engine ~at:10 (fun () -> r.inst.become_hungry 1));
  Sim.Engine.run r.engine ~until:10_000;
  check Alcotest.int "starves like every oracle-less scheme" 0 r.eats.(1)

(* ------------------------------ Metrics ----------------------------- *)

let traffic_reaches_world_metrics () =
  (* The quiet oracle sends nothing, so the world's net.sent counter is
     exactly the daemon's own dining traffic. *)
  List.iter
    (fun algo ->
      let r =
        Harness.World.run
          {
            Harness.Scenario.default with
            topology = Cgraph.Topology.Ring 6;
            seed = 3L;
            algo;
            detector = Harness.Scenario.quiet_oracle;
            crashes = Harness.Scenario.No_crashes;
            horizon = 8_000;
          }
      in
      let sent = Net.Link_stats.total_sent r.link_stats in
      check bool "daemon sends" true (sent > 0);
      check bool
        (Harness.Scenario.algo_name algo ^ ": net.sent counts the daemon's traffic")
        true
        (Obs.Metrics.find r.metrics "net.sent" = Some (Obs.Metrics.Count sent)))
    [ Harness.Scenario.Fork_only; Chandy_misra; Ordered ]

let suite =
  [
    Alcotest.test_case "fork-only: progress and exclusion" `Quick fork_only_progress_and_exclusion;
    Alcotest.test_case "ordered: progress and exclusion" `Quick ordered_progress_and_exclusion;
    Alcotest.test_case "ordered: no starvation under saturation" `Quick
      ordered_no_starvation_under_saturation;
    Alcotest.test_case "ordered: rank-order acquisition" `Quick ordered_acquires_in_rank_order;
    Alcotest.test_case "ordered: oracle gives crash tolerance" `Quick
      ordered_crash_tolerant_with_oracle;
    Alcotest.test_case "ordered: crash-intolerant without oracle" `Quick
      ordered_starves_without_oracle_on_crash;
    Alcotest.test_case "fork-only: unbounded overtaking under saturation" `Quick
      fork_only_unbounded_overtaking;
    Alcotest.test_case "fork-only: oracle gives crash tolerance" `Quick
      fork_only_crash_tolerant_with_oracle;
    Alcotest.test_case "chandy-misra: progress and exclusion" `Quick cm_progress_and_exclusion;
    Alcotest.test_case "chandy-misra: hygienic fairness" `Quick cm_fair_under_saturation;
    Alcotest.test_case "chandy-misra: acyclic initial forks" `Quick cm_initial_forks_acyclic;
    Alcotest.test_case "chandy-misra: hygiene cycle" `Quick cm_hygiene_cycle;
    Alcotest.test_case "ordered: suspicion advances the locked prefix" `Quick
      ordered_suspicion_skips_rank;
    Alcotest.test_case "chandy-misra: crash-intolerant without oracle" `Quick
      cm_starves_without_oracle_on_crash;
    Alcotest.test_case "baselines: traffic reaches the world's metrics" `Quick
      traffic_reaches_world_metrics;
  ]
