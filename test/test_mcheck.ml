(* Tests for the explicit-state model checker: transition enumeration
   sanity plus exhaustive verification on small instances. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let pair_cfg ?(sessions = 1) ?(crash_budget = 0) ?(fp_budget = 0) () =
  {
    Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ];
    colors = [| 0; 1 |];
    sessions;
    crash_budget;
    fp_budget;
  }

let labels cfg state = List.map fst (Mcheck.Model.successors cfg state)

let initial_transitions () =
  let cfg = pair_cfg () in
  let init = Mcheck.Model.initial cfg in
  (* From the start: each process may become hungry, nothing else. *)
  check (Alcotest.list Alcotest.string) "only hungry transitions" [ "hungry(0)"; "hungry(1)" ]
    (List.sort compare (labels cfg init));
  check bool "initial state is clean" true (Mcheck.Model.check cfg init = None)

let crash_and_fp_budgets_add_transitions () =
  let cfg = pair_cfg ~crash_budget:1 ~fp_budget:1 () in
  let init = Mcheck.Model.initial cfg in
  let ls = labels cfg init in
  check bool "crash transitions offered" true (List.mem "crash(0)" ls && List.mem "crash(1)" ls);
  check bool "fp transitions offered" true (List.mem "fp(0,1)" ls && List.mem "fp(1,0)" ls)

let hungry_leads_to_ping () =
  let cfg = pair_cfg () in
  let init = Mcheck.Model.initial cfg in
  let after_hungry =
    List.assoc "hungry(0)" (Mcheck.Model.successors cfg init)
  in
  let ls = labels cfg after_hungry in
  check bool "a2 enabled for the hungry process" true (List.mem "a2(0)" ls);
  check bool "a5 not enabled before the ack" true (not (List.mem "a5(0)" ls))

let rejects_improper_colors () =
  let cfg = { (pair_cfg ()) with colors = [| 1; 1 |] } in
  Alcotest.check_raises "improper coloring" (Invalid_argument "Mcheck: colors must be proper")
    (fun () -> ignore (Mcheck.Model.initial cfg))

let rejects_unrepresentable_counters () =
  (* sessions and budgets live in 16-bit fields of the packed state *)
  let too_big = Invalid_argument "Mcheck: sessions and budgets must be at most 65535" in
  Alcotest.check_raises "sessions" too_big (fun () ->
      ignore (Mcheck.Model.initial (pair_cfg ~sessions:65536 ())));
  Alcotest.check_raises "fp budget" too_big (fun () ->
      ignore (Mcheck.Model.initial (pair_cfg ~fp_budget:65536 ())));
  ignore (Mcheck.Model.initial (pair_cfg ~sessions:65535 ~crash_budget:65535 ()));
  (* the rank packs both budgets, r and x into one int *)
  let ring n =
    {
      Mcheck.Model.graph = Cgraph.Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)));
      colors = Array.init n (fun i -> if i = n - 1 then 2 else i mod 2);
      sessions = 65535;
      crash_budget = 65535;
      fp_budget = 65535;
    }
  in
  ignore (Mcheck.Model.initial (ring 3));
  Alcotest.check_raises "rank overflow"
    (Invalid_argument "Mcheck: the rank of this config overflows an int") (fun () ->
      ignore (Mcheck.Model.initial (ring 16)))

(* ------------------------ exhaustive checking ---------------------- *)

let exhaustive_pair_accurate () =
  let r = Mcheck.Frontier.explore (pair_cfg ~sessions:2 ()) in
  check bool "complete" true r.complete;
  check bool "no violation" true (r.violation = None);
  check bool "nontrivial space" true (r.states > 100)

let exhaustive_pair_with_faults () =
  let r = Mcheck.Frontier.explore (pair_cfg ~sessions:1 ~crash_budget:1 ~fp_budget:2 ()) in
  check bool "complete" true r.complete;
  check bool "structural lemmas hold under crashes and lies" true (r.violation = None)

let exhaustive_path3 () =
  let cfg =
    {
      Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ];
      colors = [| 0; 1; 0 |];
      sessions = 1;
      crash_budget = 0;
      fp_budget = 0;
    }
  in
  let r = Mcheck.Frontier.explore cfg in
  check bool "complete" true r.complete;
  check bool "no violation" true (r.violation = None)

let exhaustive_triangle_with_crash () =
  let cfg =
    {
      Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ];
      colors = [| 0; 1; 2 |];
      sessions = 1;
      crash_budget = 1;
      fp_budget = 0;
    }
  in
  let r = Mcheck.Frontier.explore ~max_states:400_000 cfg in
  check bool "no violation in explored space" true (r.violation = None);
  check bool "substantial exploration" true (r.states > 10_000)

let state_cap_respected () =
  let r = Mcheck.Frontier.explore ~max_states:50 (pair_cfg ~sessions:3 ()) in
  check bool "truncated" true (not r.complete);
  check int "capped" 50 r.states

let depth_cap_respected () =
  let r = Mcheck.Frontier.explore ~max_depth:3 (pair_cfg ~sessions:3 ()) in
  check bool "depth bounded" true (r.depth <= 3);
  check bool "marked incomplete" true (not r.complete)

let depth_cap_at_diameter_is_complete () =
  (* Regression: popping any state at the depth cap used to flag the
     search incomplete even when every successor was already visited. A
     cap equal to the space's diameter must yield a complete result
     identical to the unbounded one — including the deadlock count from
     terminal states sitting exactly on the cap. *)
  let cfg = pair_cfg ~sessions:1 () in
  let r0 = Mcheck.Frontier.explore cfg in
  check bool "reference run complete" true r0.complete;
  let r1 = Mcheck.Frontier.explore ~max_depth:r0.depth cfg in
  check bool "complete at the diameter" true r1.complete;
  check int "same states" r0.states r1.states;
  check int "same transitions" r0.transitions r1.transitions;
  check int "same depth" r0.depth r1.depth;
  check int "same deadlocks" r0.deadlocks r1.deadlocks;
  let r2 = Mcheck.Frontier.explore ~max_depth:(r0.depth - 1) cfg in
  check bool "incomplete below the diameter" true (not r2.complete)

(* The checker must actually be able to find violations: feed it a bogus
   initial coloring bypass by corrupting the invariant check via a state
   with two forks. Easiest faithful negative test: a model where both
   endpoints claim the fork is unreachable, so instead check that the
   exclusion invariant trips when the fp budget is 0 but we seed suspicion
   through a crash + detect + a9 path. That path is legitimate (eating next
   to a crashed eater is allowed), so assert it does NOT trip. *)
let exclusion_check_is_live_aware () =
  let r = Mcheck.Frontier.explore ~max_states:150_000 (pair_cfg ~sessions:1 ~crash_budget:1 ()) in
  (* With one crash allowed, a live process may eat while its crashed
     neighbor is frozen mid-eating; the live-aware exclusion check must
     not flag that. *)
  check bool "no spurious exclusion violation" true (r.violation = None)

(* A scripted walkthrough of one full hungry session in the model,
   following Algorithm 1's actions label by label — an executable version
   of the paper's prose description. *)
let scripted_session () =
  let cfg = pair_cfg () in
  let step state label =
    match List.assoc_opt label (Mcheck.Model.successors cfg state) with
    | Some next ->
        if Mcheck.Model.rank next >= Mcheck.Model.rank state then
          Alcotest.failf "%s does not lower the rank" label;
        next
    | None ->
        Alcotest.failf "transition %s not enabled; available: %s" label
          (String.concat ", " (List.map fst (Mcheck.Model.successors cfg state)))
  in
  let s = Mcheck.Model.initial cfg in
  (* Process 0 (low color, holds the token) gets hungry and runs the
     whole protocol while process 1 stays thinking. *)
  let s = step s "hungry(0)" in
  check bool "hungry" true (Mcheck.Model.phase s 0 = `Hungry);
  let s = step s "a2(0)" in          (* ping 1 *)
  let s = step s "deliver(0->1)" in  (* 1 (thinking) acks immediately *)
  let s = step s "deliver(1->0)" in  (* ack arrives *)
  let s = step s "a5(0)" in          (* enter the doorway *)
  check bool "inside" true (Mcheck.Model.inside s 0);
  let s = step s "a6(0)" in          (* request the fork with the token *)
  let s = step s "deliver(0->1)" in  (* 1 (outside) yields the fork *)
  let s = step s "deliver(1->0)" in  (* fork arrives *)
  let s = step s "a9(0)" in
  check bool "eating" true (Mcheck.Model.phase s 0 = `Eating);
  let s = step s "a10(0)" in
  check bool "back to thinking" true (Mcheck.Model.phase s 0 = `Thinking);
  check bool "no dangling invariant" true (Mcheck.Model.check cfg s = None);
  (* The session budget is spent: no second hungry(0). *)
  check bool "session budget consumed" true
    (List.assoc_opt "hungry(0)" (Mcheck.Model.successors cfg s) = None)

(* ------------------------- reachability ---------------------------- *)

let eating_is_reachable () =
  let cfg = pair_cfg () in
  (match Mcheck.Frontier.reach ~pred:(fun s -> Mcheck.Model.phase s 0 = `Eating) cfg with
  | Mcheck.Frontier.Found depth -> check bool "reasonable depth" true (depth > 3)
  | Unreachable | Truncated -> Alcotest.fail "process 0 can never eat in the model");
  match Mcheck.Frontier.reach ~pred:(fun s -> Mcheck.Model.phase s 1 = `Eating) cfg with
  | Mcheck.Frontier.Found _ -> ()
  | Unreachable | Truncated -> Alcotest.fail "process 1 can never eat in the model"

let eating_reachable_past_crash () =
  (* 0 can reach eating even in runs where 1 crashed: the suspicion
     substitution path exists in the model. *)
  let cfg = pair_cfg ~crash_budget:1 () in
  let pred s = Mcheck.Model.phase s 0 = `Eating && Mcheck.Model.crashed s 1 in
  match Mcheck.Frontier.reach ~pred cfg with
  | Mcheck.Frontier.Found _ -> ()
  | Unreachable | Truncated -> Alcotest.fail "no eat-past-crash run found"

let doorway_reachable () =
  let cfg = pair_cfg () in
  match Mcheck.Frontier.reach ~pred:(fun s -> Mcheck.Model.inside s 0) cfg with
  | Mcheck.Frontier.Found _ -> ()
  | Unreachable | Truncated -> Alcotest.fail "doorway unreachable"

let unreachable_predicate () =
  let cfg = pair_cfg () in
  (* With no crash budget nobody can be crashed — and the full space fits
     in the default budget, so the negative answer is trustworthy. *)
  check bool "correctly unreachable" true
    (Mcheck.Frontier.reach ~pred:(fun s -> Mcheck.Model.crashed s 0) cfg
    = Mcheck.Frontier.Unreachable)

let truncated_is_not_unreachable () =
  (* Regression: a search cut short by [max_states] used to report the
     same [None] as a genuinely exhausted search. The predicate here is
     impossible, but with a 10-state budget the checker cannot know
     that — it must answer [Truncated], never [Unreachable]. *)
  let cfg = pair_cfg ~sessions:2 () in
  let pred s = Mcheck.Model.crashed s 0 in
  check bool "capped search admits ignorance" true
    (Mcheck.Frontier.reach ~max_states:10 ~pred cfg = Mcheck.Frontier.Truncated);
  check bool "depth-capped search admits ignorance" true
    (Mcheck.Frontier.reach ~max_depth:2 ~pred cfg = Mcheck.Frontier.Truncated)

(* ------------------------- Theorem 2 ------------------------------- *)

(* Every transition lowers Model.rank (successors_tagged raises when one
   does not), so the model is acyclic and every schedule finite; a
   complete search with no stuck state then proves Theorem 2 for every
   schedule, not only that some continuation eats. *)
let acyclic_and_deadlock_free cfg =
  let r = Mcheck.Frontier.explore cfg in
  check bool "complete" true r.complete;
  check bool "no violation, rank check included" true (r.violation = None);
  check int "no stuck hungry process" 0 r.deadlocks

let acyclic_pair () = acyclic_and_deadlock_free (pair_cfg ~sessions:2 ())

let acyclic_pair_with_faults () =
  acyclic_and_deadlock_free (pair_cfg ~sessions:1 ~crash_budget:1 ~fp_budget:2 ())

let acyclic_triangle () =
  acyclic_and_deadlock_free
    {
      Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ];
      colors = [| 0; 1; 2 |];
      sessions = 1;
      crash_budget = 0;
      fp_budget = 0;
    }

(* ------------------------- ring-4 under faults ---------------------- *)

let ring4_with_crash_and_lies () =
  (* ring-4 with a crash and two lies is beyond an exhaustive search's
     budget; a capped frontier still checks every state of its first
     200 000, the only [Model.check] coverage of a 4-cycle under both
     fault budgets. *)
  let cfg =
    {
      Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ];
      colors = [| 0; 1; 0; 1 |];
      sessions = 2;
      crash_budget = 1;
      fp_budget = 2;
    }
  in
  let r = Mcheck.Frontier.explore ~max_states:200_000 cfg in
  check int "the cap was reached" 200_000 r.states;
  check bool "no violation on ring-4" true (r.violation = None)

(* An injected invariant that flags a state every sound run reaches —
   used to exercise the violation/counterexample machinery, since the
   real invariants never trip on a proper coloring. *)
let flag_eating cfg s =
  let n = Cgraph.Graph.n cfg.Mcheck.Model.graph in
  let rec go i =
    if i >= n then None
    else if (not (Mcheck.Model.crashed s i)) && Mcheck.Model.phase s i = `Eating then
      Some (Printf.sprintf "injected: %d eating" i)
    else go (i + 1)
  in
  go 0

(* ------------------------- DPOR ------------------------------------ *)

let path3_cfg ?(sessions = 1) ?(crash_budget = 0) ?(fp_budget = 0) () =
  {
    Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ];
    colors = [| 0; 1; 0 |];
    sessions;
    crash_budget;
    fp_budget;
  }

let dpor_agrees_with_bfs_and_reduces () =
  (* Sleep sets prune transitions, never states: DPOR must visit the
     same state space with the same verdict and deadlock count, through
     strictly fewer transitions (path-3 has the non-adjacent pair 0/2
     whose interleavings collapse). *)
  let cfg = path3_cfg () in
  let b = Mcheck.Frontier.explore cfg in
  let d = Mcheck.Dpor.explore cfg in
  check bool "both complete" true (b.complete && d.complete);
  check int "same states" b.states d.states;
  check int "same deadlocks" b.deadlocks d.deadlocks;
  check bool "same (clean) verdict" true (b.violation = None && d.violation = None);
  check bool
    (Printf.sprintf "strictly fewer transitions (%d < %d)" d.transitions b.transitions)
    true
    (d.transitions < b.transitions)

let dpor_agrees_under_faults () =
  (* crash only: adding the fp budget as well pushes path-3 to ~1.5M
     states — the agreement there is covered by the bench table. *)
  let cfg = path3_cfg ~crash_budget:1 () in
  let b = Mcheck.Frontier.explore ~max_states:400_000 cfg in
  let d = Mcheck.Dpor.explore ~max_states:400_000 cfg in
  check bool "both complete" true (b.complete && d.complete);
  check int "same states under faults" b.states d.states;
  check int "same deadlocks under faults" b.deadlocks d.deadlocks;
  check bool "reduced under faults" true (d.transitions < b.transitions)

let dpor_finds_injected_violation () =
  let cfg = pair_cfg () in
  let d = Mcheck.Dpor.explore ~check:flag_eating cfg in
  (match d.violation with
  | Some (msg, _) -> check bool "flags eating" true (String.length msg > 0)
  | None -> Alcotest.fail "DPOR missed the injected violation");
  match d.trace with
  | Some t ->
      (* the schedule must actually reproduce it *)
      (match Mcheck.Replay.run ~check:flag_eating cfg t with
      | Mcheck.Replay.Reproduced _ -> ()
      | o -> Alcotest.failf "DPOR schedule does not replay: %a" Mcheck.Replay.pp_outcome o)
  | None -> Alcotest.fail "violation without a schedule"

(* ------------------------- parallel frontier ----------------------- *)

let frontier_matches_bfs () =
  let cfg = path3_cfg () in
  let b = Explore_ref.bfs cfg in
  let f = Mcheck.Frontier.explore ~domains:1 cfg in
  check int "states" b.states f.states;
  check int "transitions" b.transitions f.transitions;
  check int "depth" b.depth f.depth;
  check int "deadlocks" b.deadlocks f.deadlocks;
  check bool "complete" b.complete f.complete;
  check bool "verdict" true (f.violation = None)

let frontier_bit_identical_across_domains () =
  (* The acceptance bar for parallel exploration: every result field is
     bit-identical whatever the domain count. *)
  let cfg = path3_cfg ~fp_budget:1 () in
  let r1 = Mcheck.Frontier.explore ~domains:1 cfg in
  List.iter
    (fun domains ->
      let rn = Mcheck.Frontier.explore ~domains cfg in
      let tag s = Printf.sprintf "%s (domains=%d)" s domains in
      check int (tag "states") r1.states rn.states;
      check int (tag "transitions") r1.transitions rn.transitions;
      check int (tag "depth") r1.depth rn.depth;
      check int (tag "deadlocks") r1.deadlocks rn.deadlocks;
      check bool (tag "complete") r1.complete rn.complete;
      check bool (tag "verdict") true (r1.violation = rn.violation))
    [ 2; 3; 4 ]

let frontier_violation_deterministic_across_domains () =
  (* With a violation in play the FIRST one in BFS order must win no
     matter how the level was chunked, schedule included. *)
  let cfg = pair_cfg () in
  let r1 = Mcheck.Frontier.explore ~domains:1 ~check:flag_eating cfg in
  let r2 = Mcheck.Frontier.explore ~domains:3 ~check:flag_eating cfg in
  check bool "violation found" true (r1.violation <> None);
  check bool "same violation" true (r1.violation = r2.violation);
  check bool "same schedule" true (r1.trace = r2.trace);
  match r1.trace with
  | Some t -> (
      match Mcheck.Replay.run ~check:flag_eating cfg t with
      | Mcheck.Replay.Reproduced _ -> ()
      | o -> Alcotest.failf "frontier schedule does not replay: %a" Mcheck.Replay.pp_outcome o)
  | None -> Alcotest.fail "violation without a schedule"

(* ------------------------- replay ---------------------------------- *)

let replay_reproduces_bfs_counterexample () =
  let cfg = pair_cfg () in
  let b = Mcheck.Frontier.explore ~check:flag_eating cfg in
  match (b.violation, b.trace) with
  | Some (msg, _), Some t -> (
      match Mcheck.Replay.run ~check:flag_eating cfg t with
      | Mcheck.Replay.Reproduced r ->
          check Alcotest.string "same message" msg r.message;
          check int "at the schedule's end" (List.length t) r.step
      | o -> Alcotest.failf "did not reproduce: %a" Mcheck.Replay.pp_outcome o)
  | _ -> Alcotest.fail "BFS found no injected violation to replay"

let replay_jsonl_roundtrip () =
  let labels = [ "hungry(0)"; "a2(0)"; "deliver(0->1)"; "deliver(1->0)"; "a5(0)" ] in
  let exported = Mcheck.Replay.to_jsonl ~header:"test schedule" labels in
  check bool "has a comment header" true (String.length exported > 0 && exported.[0] = '#');
  check (Alcotest.list Alcotest.string) "roundtrip" labels (Mcheck.Replay.of_jsonl exported)

let replay_clean_and_stuck () =
  let cfg = pair_cfg () in
  (match Mcheck.Replay.run cfg [ "hungry(0)"; "a2(0)" ] with
  | Mcheck.Replay.Clean 2 -> ()
  | o -> Alcotest.failf "expected Clean 2, got %a" Mcheck.Replay.pp_outcome o);
  match Mcheck.Replay.run cfg [ "hungry(0)"; "a9(0)" ] with
  | Mcheck.Replay.Stuck { step = 1; label = "a9(0)"; available } ->
      check bool "alternatives listed" true (available <> [])
  | o -> Alcotest.failf "expected Stuck at 1, got %a" Mcheck.Replay.pp_outcome o

let key_is_canonical () =
  let cfg = pair_cfg () in
  let a = Mcheck.Model.initial cfg and b = Mcheck.Model.initial cfg in
  check bool "equal states equal keys" true (Mcheck.Model.key a = Mcheck.Model.key b);
  let succ = Mcheck.Model.successors cfg a in
  let _, after = List.hd succ in
  check bool "different states different keys" true (Mcheck.Model.key a <> Mcheck.Model.key after)

let key_path_independent () =
  (* Regression for the Marshal-based key: structurally equal states
     built along different execution paths could serialize differently
     (sharing, allocation history), splitting one state into several.
     hungry(0);hungry(1) and hungry(1);hungry(0) commute into the same
     state — their canonical keys must collide. *)
  let cfg = pair_cfg () in
  let step s label = List.assoc label (Mcheck.Model.successors cfg s) in
  let init = Mcheck.Model.initial cfg in
  let via01 = step (step init "hungry(0)") "hungry(1)" in
  let via10 = step (step init "hungry(1)") "hungry(0)" in
  check bool "commuted paths, one key" true
    (Mcheck.Model.key via01 = Mcheck.Model.key via10);
  (* And the key is the packed state: on the pair, 2 budgets (4 bytes),
     2 processes (3 bytes each), 2 slot flag bytes, 2 channels (2 bytes
     each) and 2 x 4 absorbed counts — 24 bytes. *)
  check int "compact" 24 (String.length (Mcheck.Model.key init))

(* ------------------------- pinned exhaustive results --------------- *)

let triangle_cfg () =
  {
    Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ];
    colors = [| 0; 1; 2 |];
    sessions = 1;
    crash_budget = 0;
    fp_budget = 0;
  }

(* Every count a complete, clean exploration reports, pinned so that a
   change to the state representation cannot alter the explored space
   unnoticed. BFS and the frontier at any domain count agree on states,
   transitions and depth; DPOR reaches the same states through fewer
   transitions and reports its deepest stack as the depth. *)
let pin_counts cfg ~states ~transitions ~depth ~dpor_transitions ~dpor_depth =
  let expect tag (r : Mcheck.Explore.result) ~transitions ~depth =
    check int (tag ^ " states") states r.states;
    check int (tag ^ " transitions") transitions r.transitions;
    check int (tag ^ " depth") depth r.depth;
    check int (tag ^ " deadlocks") 0 r.deadlocks;
    check bool (tag ^ " complete") true r.complete;
    check bool (tag ^ " clean") true (r.violation = None)
  in
  expect "bfs" (Explore_ref.bfs cfg) ~transitions ~depth;
  expect "frontier d1" (Mcheck.Frontier.explore ~domains:1 cfg) ~transitions ~depth;
  expect "frontier d2" (Mcheck.Frontier.explore ~domains:2 cfg) ~transitions ~depth;
  expect "dpor" (Mcheck.Dpor.explore cfg) ~transitions:dpor_transitions ~depth:dpor_depth

let pinned_pair () =
  pin_counts (pair_cfg ~sessions:2 ()) ~states:738 ~transitions:1233 ~depth:34
    ~dpor_transitions:1233 ~dpor_depth:43

let pinned_path3 () =
  pin_counts (path3_cfg ()) ~states:6381 ~transitions:16540 ~depth:34
    ~dpor_transitions:15448 ~dpor_depth:37

let pinned_path3_fp () =
  pin_counts (path3_cfg ~fp_budget:1 ()) ~states:61377 ~transitions:212188 ~depth:35
    ~dpor_transitions:201718 ~dpor_depth:38

let pinned_triangle () =
  pin_counts (triangle_cfg ()) ~states:45711 ~transitions:137673 ~depth:42
    ~dpor_transitions:136313 ~dpor_depth:51

(* ------------------------- purity ---------------------------------- *)

(* States are values: nothing that reads a state may change it, and a
   visited set may keep a state's key. [fresh_copy] duplicates the key's
   bytes, so a later write through the state would show as a mismatch. *)
let fresh_copy k = Bytes.to_string (Bytes.of_string k)

let readers_leave_states_unchanged () =
  let cfg = pair_cfg ~crash_budget:1 ~fp_budget:2 () in
  let seen = Hashtbl.create 4096 in
  let visited = ref [] in
  let rec visit s =
    let k = Mcheck.Model.key s in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      let before = fresh_copy k in
      visited := (s, before) :: !visited;
      let succs = Mcheck.Model.successors_tagged cfg s in
      ignore (Mcheck.Model.check cfg s);
      ignore (Mcheck.Model.describe s);
      ignore (Mcheck.Model.hungry_live_process cfg s);
      ignore (Mcheck.Model.key s);
      if Mcheck.Model.key s <> before then Alcotest.fail "a reader changed its argument";
      List.iter (fun (_, _, next) -> visit next) succs
    end
  in
  visit (Mcheck.Model.initial cfg);
  check int "whole space visited" 18019 (List.length !visited);
  List.iter
    (fun (s, before) ->
      if Mcheck.Model.key s <> before then Alcotest.fail "a visited state changed later")
    !visited

let commuted_paths_agree () =
  (* For every state and every pair of enabled independent transitions,
     [a;b] and [b;a] must reach one state: one key, and from it one
     successor stream, label for label and key for key. *)
  let cfg = path3_cfg ~crash_budget:1 ~fp_budget:1 () in
  let succ_view s =
    List.map (fun (_, l, next) -> (l, Mcheck.Model.key next)) (Mcheck.Model.successors_tagged cfg s)
  in
  let step s label =
    match
      List.find_opt (fun (_, l, _) -> l = label) (Mcheck.Model.successors_tagged cfg s)
    with
    | Some (_, _, next) -> next
    | None -> Alcotest.failf "independent transition %s disabled" label
  in
  let seen = Hashtbl.create 4096 in
  let queue = Queue.create () in
  Queue.add (Mcheck.Model.initial cfg) queue;
  let pairs = ref 0 in
  while (not (Queue.is_empty queue)) && Hashtbl.length seen < 1500 do
    let s = Queue.pop queue in
    if not (Hashtbl.mem seen (Mcheck.Model.key s)) then begin
      Hashtbl.add seen (Mcheck.Model.key s) ();
      let succs = Mcheck.Model.successors_tagged cfg s in
      List.iteri
        (fun ia (a, la, sa) ->
          Queue.add sa queue;
          List.iteri
            (fun ib (b, lb, sb) ->
              if ia < ib && Mcheck.Model.independent cfg a b then begin
                incr pairs;
                let ab = step sa lb and ba = step sb la in
                check Alcotest.string (la ^ ";" ^ lb ^ " key") (Mcheck.Model.key ab)
                  (Mcheck.Model.key ba);
                check
                  (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
                  (la ^ ";" ^ lb ^ " successors") (succ_view ab) (succ_view ba)
              end)
            succs)
        succs
    end
  done;
  check bool "independent pairs exercised" true (!pairs > 1000)

let describe_mentions_phases () =
  let cfg = pair_cfg () in
  let s = Mcheck.Model.initial cfg in
  let d = Mcheck.Model.describe s in
  check bool "describes both processes" true
    (String.length d > 0 && String.split_on_char 'p' d |> List.length >= 3)

(* ------------------------- the reference BFS ----------------------- *)

(* The frontier against the sequential reference over small instances
   with fault budgets, at 1-3 domains, clean and with an injected
   violation, uncapped and capped. Clean runs agree on every field. On
   a violating run the reference stops mid-level while the frontier
   finishes the level, so they agree on the verdict and the schedule,
   and the schedule replays. *)
let frontier_equals_reference () =
  let instances =
    [
      ("pair, crash 1, fp 2", pair_cfg ~crash_budget:1 ~fp_budget:2 ());
      ("path-3, fp 1", path3_cfg ~fp_budget:1 ());
      (* past the default 200 000-state cap *)
      ("triangle, crash 1", { (triangle_cfg ()) with crash_budget = 1 });
    ]
  in
  let caps =
    [ ("uncapped", None, None); ("max_states 50", Some 50, None); ("max_depth 3", None, Some 3) ]
  in
  List.iter
    (fun (name, cfg) ->
      List.iter
        (fun (cap, max_states, max_depth) ->
          List.iter
            (fun (mode, inv) ->
              let expected = Explore_ref.bfs ?max_states ?max_depth ?check:inv cfg in
              List.iter
                (fun domains ->
                  let got = Mcheck.Frontier.explore ?max_states ?max_depth ~domains ?check:inv cfg in
                  let tag s = Printf.sprintf "%s, %s, %s, d%d: %s" name cap mode domains s in
                  check bool (tag "verdict") true (expected.violation = got.violation);
                  check bool (tag "schedule") true (expected.trace = got.trace);
                  match got.trace with
                  | None ->
                      check int (tag "states") expected.states got.states;
                      check int (tag "transitions") expected.transitions got.transitions;
                      check int (tag "depth") expected.depth got.depth;
                      check int (tag "deadlocks") expected.deadlocks got.deadlocks;
                      check bool (tag "complete") expected.complete got.complete
                  | Some t -> (
                      match Mcheck.Replay.run ?check:inv cfg t with
                      | Mcheck.Replay.Reproduced _ -> ()
                      | o -> Alcotest.failf "%s: %a" (tag "replay") Mcheck.Replay.pp_outcome o))
                [ 1; 2; 3 ])
            [ ("default check", None); ("injected", Some flag_eating) ])
        caps)
    instances

let frontier_checks_each_state_once () =
  let calls = ref 0 in
  let counting cfg s =
    incr calls;
    Mcheck.Model.check cfg s
  in
  let r = Mcheck.Frontier.explore ~check:counting (path3_cfg ()) in
  check bool "clean and complete" true (r.complete && r.violation = None);
  check int "one check per state" r.states !calls

(* The state cap bounds the states examined: with a cap one below the
   smallest that finds the target, the target is the first state past
   the cap, and the answer is Truncated. *)
let reach_beyond_the_cap_is_truncated () =
  let cfg = pair_cfg () in
  let pred s = Mcheck.Model.phase s 0 = `Eating in
  let rec smallest cap =
    match Mcheck.Frontier.reach ~max_states:cap ~pred cfg with
    | Mcheck.Frontier.Found _ -> cap
    | Truncated -> smallest (cap + 1)
    | Unreachable -> Alcotest.fail "eating unreachable on the pair"
  in
  let cap = smallest 1 in
  check bool "the cap admits states" true (cap > 1);
  check bool "one state fewer: Truncated" true
    (Mcheck.Frontier.reach ~max_states:(cap - 1) ~pred cfg = Mcheck.Frontier.Truncated)

(* A deadlock is a live hungry process with nothing but crashes enabled:
   the adversary need not crash anyone, so such a schedule may end there. *)
let stuck_counts_crash_only_states () =
  let cfg = pair_cfg ~crash_budget:1 () in
  let after label s = List.assoc label (Mcheck.Model.successors cfg s) in
  let s = after "hungry(0)" (Mcheck.Model.initial cfg) in
  let succs = Mcheck.Model.successors_tagged cfg s in
  let crashes =
    List.filter (function Mcheck.Model.Act_crash _, _, _ -> true | _ -> false) succs
  in
  check int "both crashes enabled" 2 (List.length crashes);
  check bool "not stuck while it can ping" false (Mcheck.Model.stuck cfg s succs);
  check bool "stuck when only crashes are left" true (Mcheck.Model.stuck cfg s crashes);
  check bool "stuck when nothing is left" true (Mcheck.Model.stuck cfg s []);
  let idle = Mcheck.Model.initial cfg in
  check bool "no hungry process: not stuck" false (Mcheck.Model.stuck cfg idle [])

let suite =
  [
    Alcotest.test_case "initial transitions" `Quick initial_transitions;
    Alcotest.test_case "budgets add fault transitions" `Quick crash_and_fp_budgets_add_transitions;
    Alcotest.test_case "doorway progression" `Quick hungry_leads_to_ping;
    Alcotest.test_case "validates colors" `Quick rejects_improper_colors;
    Alcotest.test_case "scripted full session walkthrough" `Quick scripted_session;
    Alcotest.test_case "exhaustive: pair, accurate oracle" `Quick exhaustive_pair_accurate;
    Alcotest.test_case "exhaustive: pair with crash and lies" `Slow exhaustive_pair_with_faults;
    Alcotest.test_case "exhaustive: path-3" `Quick exhaustive_path3;
    Alcotest.test_case "exhaustive: triangle with crash" `Slow exhaustive_triangle_with_crash;
    Alcotest.test_case "bounds: state cap" `Quick state_cap_respected;
    Alcotest.test_case "bounds: depth cap" `Quick depth_cap_respected;
    Alcotest.test_case "bounds: depth cap at diameter stays complete" `Quick
      depth_cap_at_diameter_is_complete;
    Alcotest.test_case "exclusion check is liveness-aware" `Slow exclusion_check_is_live_aware;
    Alcotest.test_case "reach: eating reachable for both" `Quick eating_is_reachable;
    Alcotest.test_case "reach: eating past a crash" `Quick eating_reachable_past_crash;
    Alcotest.test_case "reach: doorway reachable" `Quick doorway_reachable;
    Alcotest.test_case "reach: impossible predicate" `Quick unreachable_predicate;
    Alcotest.test_case "reach: truncation is not unreachability" `Quick
      truncated_is_not_unreachable;
    Alcotest.test_case "acyclic: pair, two sessions, no deadlock" `Quick acyclic_pair;
    Alcotest.test_case "acyclic: pair under crash and lies" `Slow acyclic_pair_with_faults;
    Alcotest.test_case "acyclic: triangle, no deadlock" `Slow acyclic_triangle;
    Alcotest.test_case "frontier: ring-4 with crash and lies" `Slow ring4_with_crash_and_lies;
    Alcotest.test_case "dpor: same space, fewer transitions" `Quick
      dpor_agrees_with_bfs_and_reduces;
    Alcotest.test_case "dpor: agrees under crash and lies" `Slow dpor_agrees_under_faults;
    Alcotest.test_case "dpor: finds and replays injected violation" `Quick
      dpor_finds_injected_violation;
    Alcotest.test_case "frontier: matches bfs field for field" `Quick frontier_matches_bfs;
    Alcotest.test_case "replay: reproduces a bfs counterexample" `Quick
      replay_reproduces_bfs_counterexample;
    Alcotest.test_case "replay: jsonl roundtrip" `Quick replay_jsonl_roundtrip;
    Alcotest.test_case "replay: clean and stuck outcomes" `Quick replay_clean_and_stuck;
    Alcotest.test_case "canonical keys" `Quick key_is_canonical;
    Alcotest.test_case "canonical keys: path independent and compact" `Quick
      key_path_independent;
    Alcotest.test_case "describe" `Quick describe_mentions_phases;
    Alcotest.test_case "pinned: pair, two sessions" `Quick pinned_pair;
    Alcotest.test_case "pinned: path-3" `Quick pinned_path3;
    Alcotest.test_case "pinned: path-3, one false suspicion" `Slow pinned_path3_fp;
    Alcotest.test_case "pinned: triangle" `Slow pinned_triangle;
    Alcotest.test_case "purity: readers leave states unchanged" `Quick
      readers_leave_states_unchanged;
    Alcotest.test_case "purity: commuted paths agree" `Quick commuted_paths_agree;
    Alcotest.test_case "validates counter widths" `Quick rejects_unrepresentable_counters;
    Alcotest.test_case "frontier: equals the reference" `Slow frontier_equals_reference;
    Alcotest.test_case "frontier: checks each state once" `Quick frontier_checks_each_state_once;
    Alcotest.test_case "reach: a target beyond the state cap is Truncated" `Quick
      reach_beyond_the_cap_is_truncated;
    Alcotest.test_case "stuck: crash-only states are deadlocks" `Quick
      stuck_counts_crash_only_states;
  ]

(* The frontier's workers on several domains, in the [parallel] suite
   (test/main.ml). *)
let parallel =
  [
    Alcotest.test_case "frontier: bit-identical across domains" `Slow
      frontier_bit_identical_across_domains;
    Alcotest.test_case "frontier: deterministic counterexample" `Quick
      frontier_violation_deterministic_across_domains;
  ]
