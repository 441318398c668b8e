(* Tests for the self-stabilization layer: protocol guarded commands and
   the daemon-driven scheduler. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let view self state neighbors = { Stabilize.Protocol.self; state; neighbors }

(* ----------------------------- Coloring ---------------------------- *)

let coloring_rules () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Ring 4) in
  let p = Stabilize.Coloring_protocol.make ~graph:g in
  (* Conflict with a neighbor enables the process. *)
  check bool "conflict enables" true (p.enabled (view 0 1 [| (1, 1); (3, 2) |]));
  check bool "no conflict disables" false (p.enabled (view 0 1 [| (1, 0); (3, 2) |]));
  (* Step picks the smallest free color. *)
  check int "smallest free" 2 (p.step (view 0 1 [| (1, 1); (3, 0) |]));
  check int "zero when free" 0 (p.step (view 0 1 [| (1, 1); (3, 2) |]))

let coloring_error_measure () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Ring 4) in
  let p = Stabilize.Coloring_protocol.make ~graph:g in
  let all_alive _ = true in
  check int "all same color on a 4-ring = 4 conflicts" 4 (p.error g [| 1; 1; 1; 1 |] all_alive);
  check int "proper 2-coloring" 0 (p.error g [| 0; 1; 0; 1 |] all_alive);
  (* Conflicts between two crashed endpoints are excluded. *)
  let alive i = i > 1 in
  check int "dead-dead conflict ignored" 0 (p.error g [| 1; 1; 0; 2 |] alive)

let coloring_step_never_creates_conflict =
  QCheck.Test.make ~name:"coloring: a step resolves without creating conflicts" ~count:200
    QCheck.(pair (int_range 3 8) (int_bound 10_000))
    (fun (deg, seed) ->
      let g = Cgraph.Topology.build (Cgraph.Topology.Star (deg + 1)) in
      let p = Stabilize.Coloring_protocol.make ~graph:g in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let nbrs = Array.init deg (fun k -> (k + 1, Sim.Rng.int rng (deg + 1))) in
      let mine = Sim.Rng.int rng (deg + 1) in
      let v = view 0 mine nbrs in
      (not (p.enabled v))
      ||
      let next = p.step v in
      Array.for_all (fun (_, s) -> s <> next) nbrs)

(* ---------------------------- Token ring --------------------------- *)

let token_ring_rules () =
  let p = Stabilize.Token_ring.make ~n:4 () in
  (* Root enabled iff equal to predecessor (pid 3). *)
  check bool "root enabled" true (p.enabled (view 0 2 [| (1, 0); (3, 2) |]));
  check bool "root disabled" false (p.enabled (view 0 2 [| (1, 0); (3, 1) |]));
  check int "root increments mod k" 3 (p.step (view 0 2 [| (1, 0); (3, 2) |]));
  check int "root wraps" 0 (p.step (view 0 4 [| (1, 0); (3, 4) |]));
  (* Non-root enabled iff it differs from its predecessor, and copies. *)
  check bool "follower enabled" true (p.enabled (view 2 1 [| (1, 3); (3, 0) |]));
  check bool "follower disabled" false (p.enabled (view 2 3 [| (1, 3); (3, 0) |]));
  check int "follower copies" 3 (p.step (view 2 1 [| (1, 3); (3, 0) |]))

let token_ring_error () =
  let p = Stabilize.Token_ring.make ~n:4 () in
  let g = Cgraph.Topology.build (Cgraph.Topology.Ring 4) in
  let alive _ = true in
  (* Legitimate: exactly one enabled process. All-equal: only root enabled. *)
  check int "stable configuration" 0 (p.error g [| 2; 2; 2; 2 |] alive);
  check bool "chaotic configuration has error" true (p.error g [| 0; 3; 1; 4 |] alive > 0)

let token_ring_validation () =
  Alcotest.check_raises "ring too small" (Invalid_argument "Token_ring.make: n < 3")
    (fun () -> ignore (Stabilize.Token_ring.make ~n:2 ()))

(* ----------------------------- Matching ---------------------------- *)

let matching_rules () =
  let p = Stabilize.Matching.make () in
  (* accept: someone points at me *)
  check bool "accept enabled" true (p.enabled (view 0 0 [| (1, 1); (2, 0) |]));
  check int "accept sets pointer" 2 (p.step (view 0 0 [| (1, 1); (2, 0) |]));
  (* propose: all quiet, a null neighbor exists *)
  check bool "propose enabled" true (p.enabled (view 0 0 [| (1, 0) |]));
  check int "propose lowest" 2 (p.step (view 0 0 [| (1, 0); (3, 0) |]));
  (* back off: partner points elsewhere *)
  check bool "back off enabled" true (p.enabled (view 0 2 [| (1, 3) |]));
  check int "back off to null" 0 (p.step (view 0 2 [| (1, 3) |]));
  (* stable pair: mutual pointers disable both sides *)
  check bool "mutual is stable" false (p.enabled (view 0 2 [| (1, 1) |]))

let matching_error () =
  let p = Stabilize.Matching.make () in
  let g = Cgraph.Topology.build (Cgraph.Topology.Path 4) in
  let alive _ = true in
  (* 0-1 matched, 2-3 matched: maximal. States are pointers + 1. *)
  check int "perfect matching" 0 (p.error g [| 2; 1; 4; 3 |] alive);
  (* everyone null on a path: all can match someone *)
  check bool "all null has error" true (p.error g [| 0; 0; 0; 0 |] alive > 0)

(* ----------------------------- BFS tree ---------------------------- *)

let bfs_rules () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Path 4) in
  let p = Stabilize.Bfs_tree.make ~graph:g in
  (* Root resets to 0. *)
  check bool "root enabled when nonzero" true (p.enabled (view 0 3 [| (1, 1) |]));
  check int "root resets" 0 (p.step (view 0 3 [| (1, 1) |]));
  check bool "root stable at 0" false (p.enabled (view 0 0 [| (1, 1) |]));
  (* Others contract toward 1 + min neighbor. *)
  check bool "follower enabled" true (p.enabled (view 2 4 [| (1, 1); (3, 2) |]));
  check int "follower recomputes" 2 (p.step (view 2 4 [| (1, 1); (3, 2) |]));
  check bool "fixed point stable" false (p.enabled (view 2 2 [| (1, 1); (3, 3) |]))

let bfs_distances_helper () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Ring 6) in
  check (Alcotest.list int) "ring distances" [ 0; 1; 2; 3; 2; 1 ]
    (Array.to_list (Stabilize.Bfs_tree.distances g))

let bfs_error_zero_at_fixed_point () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Binary_tree 7) in
  let p = Stabilize.Bfs_tree.make ~graph:g in
  let d = Stabilize.Bfs_tree.distances g in
  check int "true distances are silent" 0 (p.error g d (fun _ -> true));
  d.(3) <- d.(3) + 2;
  check bool "perturbation wakes processes" true (p.error g d (fun _ -> true) > 0)

(* ----------------------------- Scheduler --------------------------- *)

type srig = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  sched : Stabilize.Scheduler.t;
}

let stab_rig ?(topology = Cgraph.Topology.Random_gnp (12, 0.3, 7L)) ?(detector = `Oracle)
    ?(protocol = `Coloring) ?(seed = 33L) () =
  let graph = Cgraph.Topology.build topology in
  let n = Cgraph.Graph.n graph in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n in
  let det =
    match detector with
    | `Oracle -> snd (Fd.Oracle.create engine faults graph ~detection_delay:30 ())
    | `Never -> Fd.Never.create ()
  in
  let rng = Sim.Rng.create seed in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Uniform (1, 5))
      ~rng:(Sim.Rng.split_named rng "net") ~detector:det ()
  in
  let proto =
    match protocol with
    | `Coloring -> Stabilize.Coloring_protocol.make ~graph
    | `Matching -> Stabilize.Matching.make ()
    | `Token_ring -> Stabilize.Token_ring.make ~n ()
    | `Bfs -> Stabilize.Bfs_tree.make ~graph
  in
  let sched =
    Stabilize.Scheduler.attach ~engine ~faults ~graph
      ~rng:(Sim.Rng.split_named rng "sched")
      ~protocol:proto
      (Dining.Algorithm.instance algo)
  in
  { engine; faults; sched }

let scheduler_converges_coloring () =
  let r = stab_rig () in
  Sim.Engine.run r.engine ~until:30_000;
  let o = Stabilize.Scheduler.outcome r.sched in
  check int "converged to zero conflicts" 0 o.final_error;
  check bool "convergence recorded" true (o.converged_at <> None)

let scheduler_converges_with_crashes () =
  let r = stab_rig () in
  Net.Faults.schedule_crash r.faults ~pid:1 ~at:500;
  Net.Faults.schedule_crash r.faults ~pid:4 ~at:900;
  Sim.Engine.run r.engine ~until:30_000;
  let o = Stabilize.Scheduler.outcome r.sched in
  check int "still converges around frozen nodes" 0 o.final_error

let scheduler_recovers_from_transients () =
  let r = stab_rig () in
  Stabilize.Scheduler.schedule_faults r.sched ~at:[ 10_000 ] ~victims:5;
  Sim.Engine.run r.engine ~until:40_000;
  let o = Stabilize.Scheduler.outcome r.sched in
  check int "recovered" 0 o.final_error;
  (match o.converged_at with
  | Some t -> check bool "re-convergence after the fault" true (t >= 10_000 || o.steps_executed = 0)
  | None -> Alcotest.fail "did not converge")

let scheduler_token_ring_circulates () =
  let r = stab_rig ~topology:(Cgraph.Topology.Ring 6) ~protocol:`Token_ring () in
  Sim.Engine.run r.engine ~until:30_000;
  let o = Stabilize.Scheduler.outcome r.sched in
  check int "single token" 0 o.final_error;
  (* The token keeps moving inside the legitimate set: many steps. *)
  check bool "token circulates" true (o.steps_executed > 50)

let scheduler_matching_stabilizes () =
  let r = stab_rig ~topology:(Cgraph.Topology.Ring 8) ~protocol:`Matching () in
  Sim.Engine.run r.engine ~until:30_000;
  let o = Stabilize.Scheduler.outcome r.sched in
  check int "maximal matching reached" 0 o.final_error

let scheduler_bfs_reaches_true_distances () =
  let topology = Cgraph.Topology.Random_gnp (14, 0.25, 9L) in
  let r = stab_rig ~topology ~protocol:`Bfs () in
  Sim.Engine.run r.engine ~until:30_000;
  let o = Stabilize.Scheduler.outcome r.sched in
  check int "silent" 0 o.final_error;
  (* Crash-free, the fixed point is exactly the BFS distances. *)
  let g = Cgraph.Topology.build topology in
  check (Alcotest.list int) "true BFS distances"
    (Array.to_list (Stabilize.Bfs_tree.distances g))
    (Array.to_list (Stabilize.Scheduler.states r.sched))

let scheduler_bfs_with_crashes_goes_silent () =
  let r = stab_rig ~topology:(Cgraph.Topology.Random_gnp (14, 0.25, 9L)) ~protocol:`Bfs () in
  Net.Faults.schedule_crash r.faults ~pid:2 ~at:400;
  Net.Faults.schedule_crash r.faults ~pid:7 ~at:800;
  Stabilize.Scheduler.schedule_faults r.sched ~at:[ 8_000 ] ~victims:4;
  Sim.Engine.run r.engine ~until:30_000;
  let o = Stabilize.Scheduler.outcome r.sched in
  check int "live part reaches a fixed point" 0 o.final_error

let scheduler_never_daemon_with_crash_fails () =
  (* A crash under the oracle-less daemon blocks the neighborhood, so a
     conflict adjacent to a blocked hungry process can persist forever. *)
  let r = stab_rig ~detector:`Never ~topology:(Cgraph.Topology.Ring 8) ~seed:2L () in
  Stabilize.Scheduler.schedule_faults r.sched ~at:[ 5_000 ] ~victims:8;
  Net.Faults.schedule_crash r.faults ~pid:3 ~at:200;
  Sim.Engine.run r.engine ~until:40_000;
  let o = Stabilize.Scheduler.outcome r.sched in
  let r2 = stab_rig ~detector:`Oracle ~topology:(Cgraph.Topology.Ring 8) ~seed:2L () in
  Stabilize.Scheduler.schedule_faults r2.sched ~at:[ 5_000 ] ~victims:8;
  Net.Faults.schedule_crash r2.faults ~pid:3 ~at:200;
  Sim.Engine.run r2.engine ~until:40_000;
  let o2 = Stabilize.Scheduler.outcome r2.sched in
  check int "oracle daemon converges" 0 o2.final_error;
  (* The Never daemon must do no better than the oracle daemon; on this
     seed the transient fault leaves a conflict next to the blocked zone. *)
  check bool "never daemon stuck or slower" true
    (o.final_error > 0 || o.converged_at >= o2.converged_at)

let suite =
  [
    Alcotest.test_case "coloring: guarded command" `Quick coloring_rules;
    Alcotest.test_case "coloring: error measure" `Quick coloring_error_measure;
    Seeded.to_alcotest coloring_step_never_creates_conflict;
    Alcotest.test_case "token ring: guarded commands" `Quick token_ring_rules;
    Alcotest.test_case "token ring: error measure" `Quick token_ring_error;
    Alcotest.test_case "token ring: validation" `Quick token_ring_validation;
    Alcotest.test_case "matching: guarded commands" `Quick matching_rules;
    Alcotest.test_case "matching: error measure" `Quick matching_error;
    Alcotest.test_case "bfs: guarded commands" `Quick bfs_rules;
    Alcotest.test_case "bfs: distance helper" `Quick bfs_distances_helper;
    Alcotest.test_case "bfs: silence at the fixed point" `Quick bfs_error_zero_at_fixed_point;
    Alcotest.test_case "scheduler: coloring converges" `Quick scheduler_converges_coloring;
    Alcotest.test_case "scheduler: bfs reaches true distances" `Quick
      scheduler_bfs_reaches_true_distances;
    Alcotest.test_case "scheduler: bfs silent despite crashes" `Quick
      scheduler_bfs_with_crashes_goes_silent;
    Alcotest.test_case "scheduler: converges despite crashes" `Quick scheduler_converges_with_crashes;
    Alcotest.test_case "scheduler: recovers from transient faults" `Quick
      scheduler_recovers_from_transients;
    Alcotest.test_case "scheduler: token ring circulates" `Quick scheduler_token_ring_circulates;
    Alcotest.test_case "scheduler: matching stabilizes" `Quick scheduler_matching_stabilizes;
    Alcotest.test_case "scheduler: crash-intolerant daemon can fail" `Quick
      scheduler_never_daemon_with_crash_fails;
  ]
