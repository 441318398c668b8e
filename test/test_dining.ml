(* Unit tests for Algorithm 1 (Dining.Algorithm): doorway mechanics, fork
   mechanics, crash tolerance, and the executable lemmas. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

type rig = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  algo : Dining.Algorithm.t;
  inst : Dining.Instance.t;
}

(* A rig with a scripted oracle (detection delay 20, no false positives
   unless given) and fixed message delay for full determinism. *)
let rig ?(edges = [ (0, 1) ]) ?(n = 2) ?colors ?(delay = Net.Delay.Fixed 3) ?(fps = [])
    ?(detector = `Oracle) () =
  let graph = Cgraph.Graph.of_edges ~n edges in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n in
  let det =
    match detector with
    | `Oracle -> snd (Fd.Oracle.create engine faults graph ~detection_delay:20 ~false_positives:fps ())
    | `Never -> Fd.Never.create ()
    | `Perfect -> Fd.Perfect.create engine faults graph
  in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph ~delay ~rng:(Sim.Rng.create 2L) ~detector:det
      ?colors ()
  in
  { engine; faults; graph; algo; inst = Dining.Algorithm.instance algo }

(* Auto-exit: every grant is followed by a fixed-length eating session. *)
let auto_stop ?(duration = 10) r =
  r.inst.add_listener (fun pid phase ->
      if phase = Dining.Types.Eating then
        ignore (Sim.Engine.schedule_after r.engine ~delay:duration (fun () -> r.inst.stop_eating pid)))

(* Re-hungry loop: pid asks again [gap] ticks after each exit. *)
let auto_rehungry ?(gap = 5) r pid =
  r.inst.add_listener (fun p phase ->
      if p = pid && phase = Dining.Types.Thinking then
        ignore (Sim.Engine.schedule_after r.engine ~delay:gap (fun () -> r.inst.become_hungry pid)))

let phase_t = Alcotest.testable Dining.Types.pp_phase Dining.Types.equal_phase

(* --------------------------- initial state ------------------------- *)

let initial_placement () =
  let r = rig ~colors:[| 0; 1 |] () in
  check bool "fork at higher color" true (Dining.Algorithm.holds_fork r.algo 1 0);
  check bool "not at lower" false (Dining.Algorithm.holds_fork r.algo 0 1);
  check bool "token at lower color" true (Dining.Algorithm.holds_token r.algo 0 1);
  check bool "not at higher" false (Dining.Algorithm.holds_token r.algo 1 0);
  check phase_t "thinking initially" Dining.Types.Thinking (r.inst.phase 0);
  check bool "outside doorway" false (Dining.Algorithm.inside_doorway r.algo 0);
  Dining.Algorithm.check_invariants r.algo

let rejects_improper_colors () =
  Alcotest.check_raises "improper coloring"
    (Invalid_argument "Algorithm.create: colors must be a proper coloring") (fun () ->
      ignore (rig ~colors:[| 1; 1 |] ()))

(* ----------------------- uncontended progress ---------------------- *)

let lone_hungry_process_eats () =
  let r = rig ~colors:[| 0; 1 |] () in
  auto_stop r;
  r.inst.become_hungry 0;
  check phase_t "hungry immediately" Dining.Types.Hungry (r.inst.phase 0);
  Sim.Engine.run r.engine ~until:100;
  (* 0 must have eaten exactly once and gone back to thinking. *)
  check int "ate once" 1 (Dining.Algorithm.eat_count r.algo 0);
  check phase_t "back to thinking" Dining.Types.Thinking (r.inst.phase 0);
  check bool "exited doorway" false (Dining.Algorithm.inside_doorway r.algo 0);
  (* The fork was pulled from 1 and stays with 0 until re-requested. *)
  check bool "holds the fork now" true (Dining.Algorithm.holds_fork r.algo 0 1);
  Dining.Algorithm.check_invariants r.algo

let high_priority_diner_eats_too () =
  let r = rig ~colors:[| 0; 1 |] () in
  auto_stop r;
  r.inst.become_hungry 1;
  Sim.Engine.run r.engine ~until:100;
  check int "higher color ate" 1 (Dining.Algorithm.eat_count r.algo 1)

let become_hungry_idempotent () =
  let r = rig () in
  r.inst.become_hungry 0;
  r.inst.become_hungry 0;
  check phase_t "hungry" Dining.Types.Hungry (r.inst.phase 0);
  (* stop_eating on a non-eating process is a no-op *)
  r.inst.stop_eating 0;
  check phase_t "still hungry" Dining.Types.Hungry (r.inst.phase 0)

(* An executable timeline of the full handshake with Fixed-3 delays:
   ping at t=0, ack at t=3..6, doorway entry at t=6, request out, fork
   back, eating at t=12 — every intermediate bit observed. *)
let scripted_timeline () =
  let r = rig ~colors:[| 0; 1 |] () in
  r.inst.become_hungry 0;
  (* t=0: ping sent, nothing else. *)
  check bool "pinged, no ack yet" true
    ((not (Dining.Algorithm.inside_doorway r.algo 0)) && not (Dining.Algorithm.holds_fork r.algo 0 1));
  Sim.Engine.run r.engine ~until:3;
  (* t=3: ping delivered at 1 (thinking) which replied immediately. *)
  Sim.Engine.run r.engine ~until:5;
  check bool "still outside at t=5" false (Dining.Algorithm.inside_doorway r.algo 0);
  Sim.Engine.run r.engine ~until:6;
  (* t=6: ack delivered; Action 5 entered the doorway; Action 6 sent the
     token at the same instant. *)
  check bool "inside at t=6" true (Dining.Algorithm.inside_doorway r.algo 0);
  check bool "token spent on the request" false (Dining.Algorithm.holds_token r.algo 0 1);
  Sim.Engine.run r.engine ~until:9;
  (* t=9: request reached 1, which yielded the fork (and kept the token). *)
  check bool "peer lost the fork" false (Dining.Algorithm.holds_fork r.algo 1 0);
  check bool "peer holds the token now" true (Dining.Algorithm.holds_token r.algo 1 0);
  Sim.Engine.run r.engine ~until:12;
  (* t=12: fork delivered; Action 9 fired. *)
  check phase_t "eating at t=12" Dining.Types.Eating (r.inst.phase 0);
  check bool "holds the fork" true (Dining.Algorithm.holds_fork r.algo 0 1);
  r.inst.stop_eating 0;
  check phase_t "thinking after exit" Dining.Types.Thinking (r.inst.phase 0);
  Dining.Algorithm.check_invariants r.algo

(* ------------------------ mutual exclusion ------------------------- *)

let no_simultaneous_eating_when_accurate () =
  let r = rig ~edges:[ (0, 1) ] () in
  auto_stop r;
  auto_rehungry r 0;
  auto_rehungry r 1;
  let eating = Array.make 2 false in
  let overlap = ref false in
  r.inst.add_listener (fun pid phase ->
      (match phase with
      | Dining.Types.Eating ->
          if eating.(1 - pid) then overlap := true;
          eating.(pid) <- true
      | _ -> eating.(pid) <- false));
  r.inst.become_hungry 0;
  r.inst.become_hungry 1;
  Sim.Engine.run r.engine ~until:5_000;
  check bool "no overlap with accurate oracle" false !overlap;
  check bool "both ate repeatedly" true
    (Dining.Algorithm.eat_count r.algo 0 > 10 && Dining.Algorithm.eat_count r.algo 1 > 10);
  Dining.Algorithm.check_invariants r.algo

let false_positive_can_cause_violation () =
  (* Both suspect each other during an early window: both can enter the
     doorway and eat without forks — the scheduling mistake ◇WX allows. *)
  let fps =
    [
      { Fd.Oracle.observer = 0; target = 1; from_t = 0; till_t = 60 };
      { Fd.Oracle.observer = 1; target = 0; from_t = 0; till_t = 60 };
    ]
  in
  let r = rig ~fps ~delay:(Net.Delay.Fixed 50) () in
  (* Long delays: no real message can beat the suspicion window. *)
  auto_stop ~duration:30 r;
  let both = ref false in
  r.inst.add_listener (fun _ _ ->
      if r.inst.phase 0 = Dining.Types.Eating && r.inst.phase 1 = Dining.Types.Eating then
        both := true);
  r.inst.become_hungry 0;
  r.inst.become_hungry 1;
  Sim.Engine.run r.engine ~until:100;
  check bool "simultaneous eating during the mistake window" true !both;
  (* Structural lemmas hold even during mistakes. *)
  Dining.Algorithm.check_invariants r.algo

(* --------------------------- crash cases --------------------------- *)

let crash_while_eating_does_not_block_neighbor () =
  let r = rig ~colors:[| 0; 1 |] () in
  (* 1 eats and crashes mid-session, holding the shared fork forever. *)
  r.inst.add_listener (fun pid phase ->
      if pid = 1 && phase = Dining.Types.Eating then
        Net.Faults.schedule_crash r.faults ~pid:1 ~at:(Sim.Engine.now r.engine + 2));
  auto_stop r;
  r.inst.become_hungry 1;
  Sim.Engine.run r.engine ~until:50;
  check bool "1 crashed while eating" true (Net.Faults.is_crashed r.faults 1);
  check phase_t "1 frozen in eating" Dining.Types.Eating (r.inst.phase 1);
  r.inst.become_hungry 0;
  Sim.Engine.run r.engine ~until:500;
  check bool "0 still eats (wait-free)" true (Dining.Algorithm.eat_count r.algo 0 >= 1);
  Dining.Algorithm.check_invariants r.algo

let crash_outside_doorway_does_not_block_neighbor () =
  let r = rig ~colors:[| 0; 1 |] () in
  auto_stop r;
  Net.Faults.schedule_crash r.faults ~pid:1 ~at:5;
  ignore (Sim.Engine.schedule r.engine ~at:10 (fun () -> r.inst.become_hungry 0));
  Sim.Engine.run r.engine ~until:500;
  check bool "0 eats past the crashed neighbor" true (Dining.Algorithm.eat_count r.algo 0 >= 1)

let never_detector_starves_neighbor_of_crashed () =
  let r = rig ~detector:`Never ~colors:[| 0; 1 |] () in
  auto_stop r;
  (* 1 holds the fork (higher color) and crashes before ever eating; the
     doorway ack from a thinking process is still granted, but the fork
     can never be obtained. *)
  Net.Faults.schedule_crash r.faults ~pid:1 ~at:5;
  ignore (Sim.Engine.schedule r.engine ~at:10 (fun () -> r.inst.become_hungry 0));
  Sim.Engine.run r.engine ~until:20_000;
  check int "0 never eats without an oracle" 0 (Dining.Algorithm.eat_count r.algo 0);
  check phase_t "0 starves hungry" Dining.Types.Hungry (r.inst.phase 0)

let quiescence_toward_crashed () =
  let r = rig ~colors:[| 0; 1 |] () in
  let stats = Dining.Algorithm.network_stats r.algo in
  auto_stop r;
  auto_rehungry r 0;
  Net.Faults.schedule_crash r.faults ~pid:1 ~at:50;
  r.inst.become_hungry 0;
  Sim.Engine.run r.engine ~until:50;
  let at_crash = Net.Link_stats.total_sends_to stats ~dst:1 in
  Sim.Engine.run r.engine ~until:20_000;
  (* After the crash: at most one ping and one token (request) can ever be
     sent to the crashed process; after a grace period, nothing at all. *)
  check bool "bounded post-crash traffic" true
    (Net.Link_stats.total_sends_to stats ~dst:1 - at_crash <= 2);
  check bool "silence after grace period" true
    (match Net.Link_stats.last_send_to stats 1 with Some t -> t <= 1_000 | None -> false);
  check bool "0 keeps eating forever" true (Dining.Algorithm.eat_count r.algo 0 > 100);
  Dining.Algorithm.check_invariants r.algo

(* --------------------------- section 7 ----------------------------- *)

let channel_capacity_bound () =
  let r = rig ~edges:[ (0, 1); (1, 2); (0, 2) ] ~n:3 ~delay:(Net.Delay.Uniform (1, 9)) () in
  auto_stop ~duration:3 r;
  List.iter (fun p -> auto_rehungry ~gap:1 r p) [ 0; 1; 2 ];
  List.iter r.inst.become_hungry [ 0; 1; 2 ];
  Sim.Engine.run r.engine ~until:10_000;
  check bool "at most 4 in transit per edge" true
    (Net.Link_stats.max_edge_watermark (Dining.Algorithm.network_stats r.algo) <= 4);
  Dining.Algorithm.check_invariants r.algo

let footprint_formula () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Star 7) in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:7 in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph:g ~delay:(Net.Delay.Fixed 1)
      ~rng:(Sim.Rng.create 1L) ~detector:(Fd.Never.create ()) ()
  in
  (* Hub: degree 6, colors in {0, 1} -> 1 bit; 2 + 1 + 1 + 36 = 40. *)
  check int "hub footprint" 40 (Dining.Algorithm.footprint_bits algo 0);
  (* Leaf: degree 1 -> 2 + 1 + 1 + 6 = 10. *)
  check int "leaf footprint" 10 (Dining.Algorithm.footprint_bits algo 1);
  check bool "message bits small" true (Dining.Algorithm.max_message_bits algo <= 8)

let eventual_2_bounded_waiting_pair () =
  (* Accurate oracle from the start: the k = 2 bound applies to the whole
     run. Count how often 1 eats while 0 stays continuously hungry. *)
  let r = rig ~edges:[ (0, 1) ] ~colors:[| 0; 1 |] ~delay:(Net.Delay.Uniform (1, 5)) () in
  auto_stop ~duration:4 r;
  auto_rehungry ~gap:1 r 0;
  auto_rehungry ~gap:1 r 1;
  let hungry0_since = ref None in
  let overtakes = ref 0 and worst = ref 0 in
  r.inst.add_listener (fun pid phase ->
      match (pid, phase) with
      | 0, Dining.Types.Hungry -> hungry0_since := Some (Sim.Engine.now r.engine)
      | 0, Dining.Types.Eating ->
          hungry0_since := None;
          overtakes := 0
      | 1, Dining.Types.Eating ->
          if !hungry0_since <> None then begin
            incr overtakes;
            if !overtakes > !worst then worst := !overtakes
          end
      | _ -> ());
  r.inst.become_hungry 0;
  r.inst.become_hungry 1;
  Sim.Engine.run r.engine ~until:20_000;
  check bool "plenty of sessions" true (Dining.Algorithm.eat_count r.algo 0 > 100);
  check bool "2-bounded waiting" true (!worst <= 2);
  Dining.Algorithm.check_invariants r.algo

let total_eats_accounting () =
  let r = rig () in
  auto_stop r;
  r.inst.become_hungry 0;
  Sim.Engine.run r.engine ~until:200;
  check int "total = sum of per-process" (Dining.Algorithm.eat_count r.algo 0 + Dining.Algorithm.eat_count r.algo 1)
    (Dining.Algorithm.total_eats r.algo)

(* The ack-budget knob, on the adversarial blocker/overtaker/victim path
   (see experiment E11): a long-eating blocker pins the victim outside the
   doorway; the overtaker laps it once per granted ack. *)
let knob_run ~m =
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:3 in
  let _, detector = Fd.Oracle.create engine faults graph ~detection_delay:50 () in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 2)
      ~rng:(Sim.Rng.create 3L) ~detector ~colors:[| 1; 0; 2 |] ~acks_per_session:m ()
  in
  let inst = Dining.Algorithm.instance algo in
  let fairness = Monitor.Fairness.attach engine graph faults inst in
  let eat_for = [| 5; 5; 4_000 |] and rest_for = [| 3; 3; 200 |] in
  inst.add_listener (fun pid phase ->
      match phase with
      | Dining.Types.Eating ->
          ignore
            (Sim.Engine.schedule_after engine ~delay:eat_for.(pid) (fun () ->
                 inst.stop_eating pid))
      | Dining.Types.Thinking ->
          ignore
            (Sim.Engine.schedule_after engine ~delay:rest_for.(pid) (fun () ->
                 inst.become_hungry pid))
      | Dining.Types.Hungry -> ());
  List.iter inst.become_hungry [ 2; 0; 1 ];
  Sim.Engine.run engine ~until:60_000;
  (Monitor.Fairness.max_consecutive fairness, algo)

let ack_budget_default_bound () =
  let worst, algo = knob_run ~m:1 in
  check bool "paper's bound k = 2" true (worst <= 2);
  Dining.Algorithm.check_invariants algo

let ack_budget_relaxed_bound () =
  let worst, algo = knob_run ~m:3 in
  check bool "exceeds the k = 2 bound" true (worst > 2);
  check bool "within the k = m+1 bound" true (worst <= 4);
  Dining.Algorithm.check_invariants algo

let ack_budget_validated () =
  let graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:2 in
  Alcotest.check_raises "zero budget rejected"
    (Invalid_argument "Algorithm.create: acks_per_session must be >= 1") (fun () ->
      ignore
        (Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 1)
           ~rng:(Sim.Rng.create 1L) ~detector:(Fd.Never.create ()) ~acks_per_session:0 ()))

(* [granted] is one byte of the slot record. *)
let ack_budget_fits_a_byte () =
  let graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let create m =
    let engine = Sim.Engine.create () in
    let faults = Net.Faults.create engine ~n:2 in
    ignore
      (Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 1)
         ~rng:(Sim.Rng.create 1L) ~detector:(Fd.Never.create ()) ~acks_per_session:m ())
  in
  create 255;
  Alcotest.check_raises "256 rejected"
    (Invalid_argument "Algorithm.create: acks_per_session must be <= 255") (fun () -> create 256)

(* The per-slot message counters are 8-bit and wrap. Hundreds of
   sessions on a ring of 8 push every channel's counts past 255, and the
   exact check, run every few ticks with messages in flight, still
   passes; once the world is quiet, one message the slot counters never
   saw fails it. *)
let slot_counters_checked_against_network () =
  let ring8 = Cgraph.Graph.edges (Cgraph.Topology.build (Cgraph.Topology.Ring 8)) in
  let r = rig ~n:8 ~edges:ring8 ~detector:`Never () in
  auto_stop ~duration:2 r;
  let sessions = ref 0 in
  r.inst.add_listener (fun pid phase ->
      if phase = Dining.Types.Thinking && !sessions < 2_400 then begin
        incr sessions;
        ignore (Sim.Engine.schedule_after r.engine ~delay:1 (fun () -> r.inst.become_hungry pid))
      end);
  let rec watch () =
    Dining.Algorithm.check_invariants r.algo;
    if !sessions < 2_400 then Sim.Engine.schedule_after r.engine ~delay:3 watch
  in
  watch ();
  for pid = 0 to 7 do
    r.inst.become_hungry pid
  done;
  Sim.Engine.run_all r.engine;
  (* A session pings each neighbor once, so a process that ate more than
     256 times wrapped the ping counter of both its slots. *)
  for pid = 0 to 7 do
    check bool "ping counters wrapped" true (Dining.Algorithm.eat_count r.algo pid > 256)
  done;
  let stats = Dining.Algorithm.network_stats r.algo in
  Dining.Algorithm.check_invariants r.algo;
  ignore (Net.Link_stats.record_send stats ~slot:(Cgraph.Graph.dir_index r.graph 2 3) ~at:0 ~deliver_at:0);
  Alcotest.check_raises "unaccounted message"
    (Dining.Types.Invariant_violation
       "edge (2,3): 0 messages in transit by the slot counters, 1 by the network") (fun () ->
      Dining.Algorithm.check_invariants r.algo)

let debug_dump () =
  let r = rig ~colors:[| 0; 1 |] () in
  let dump = Format.asprintf "%a" (Dining.Algorithm.pp_process r.algo) 1 in
  (* p1: thinking, color 1, fork held (F), token absent (t). *)
  check Alcotest.string "initial dump" "p1 thinking c=1 | 0:pardFt" dump;
  r.inst.become_hungry 0;
  let dump0 = Format.asprintf "%a" (Dining.Algorithm.pp_process r.algo) 0 in
  (* p0 just pinged: P set, fork absent, token held. *)
  check Alcotest.string "hungry dump" "p0 hungry c=0 | 1:PardfT" dump0;
  let global = Format.asprintf "%a" (Dining.Algorithm.pp_global r.algo) () in
  check bool "global dump has both lines" true
    (List.length (String.split_on_char '\n' global) >= 2)

let message_kind_labels () =
  check Alcotest.string "ping" "ping" (Dining.Types.message_kind Dining.Types.Ping);
  check Alcotest.string "ack" "ack" (Dining.Types.message_kind Dining.Types.Ack);
  check Alcotest.string "request" "request" (Dining.Types.message_kind (Dining.Types.Request 3));
  check Alcotest.string "fork" "fork" (Dining.Types.message_kind Dining.Types.Fork);
  check bool "bits grow with n" true
    (Dining.Types.message_bits ~n:1024 Dining.Types.Fork
    > Dining.Types.message_bits ~n:4 Dining.Types.Fork)

(* Regression: the algorithm used to emit its phase records and its
   "enter_doorway" mark to a private disabled recorder unless handed one
   explicitly, so an engine collecting its world's trace silently lost
   them. One recorder per world: the engine's. *)
let emits_to_engine_recorder () =
  let graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let engine = Sim.Engine.create ~recorder:(Obs.Recorder.collecting ()) () in
  let faults = Net.Faults.create engine ~n:2 in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 3)
      ~rng:(Sim.Rng.create 2L) ~detector:(Fd.Never.create ()) ()
  in
  (Dining.Algorithm.instance algo).become_hungry 0;
  Sim.Engine.run engine ~until:100;
  let records = Obs.Recorder.records (Sim.Engine.recorder engine) in
  let phases =
    List.filter_map
      (fun (r : Obs.Record.t) ->
        match r.kind with Obs.Record.Phase { pid = 0; phase } -> Some phase | _ -> None)
      records
  in
  check (Alcotest.list Alcotest.string) "phase records" [ "hungry"; "eating" ] phases;
  check bool "doorway mark" true
    (List.exists
       (fun (r : Obs.Record.t) ->
         match r.kind with
         | Obs.Record.Mark { subject = 0; tag = "enter_doorway"; _ } -> true
         | _ -> false)
       records)

(* Regression: [create] used to keep the caller's colors array, so a
   later write to that array changed the algorithm's priorities, and
   its footprint, under it. *)
let colors_are_copied () =
  let colors = [| 0; 1 |] in
  let r = rig ~colors () in
  let footprint = Dining.Algorithm.footprint_bits r.algo 0 in
  colors.(0) <- 6;
  colors.(1) <- 7;
  check int "color 0 unchanged" 0 (Dining.Algorithm.color r.algo 0);
  check int "color 1 unchanged" 1 (Dining.Algorithm.color r.algo 1);
  check int "footprint unchanged" footprint (Dining.Algorithm.footprint_bits r.algo 0)

(* The invariant watcher runs every few ticks in long worlds, so a
   passing check must allocate nothing. Regression: it built closures
   per call and binary-searched a slot per edge (103 words a call
   here). *)
let check_invariants_allocates_nothing () =
  let words_for_10_checks r =
    Dining.Algorithm.check_invariants r.algo;
    Alloc.words (fun () ->
        for _ = 1 to 10 do
          Dining.Algorithm.check_invariants r.algo
        done)
  in
  let n = 8 in
  let r = rig ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n))) ~delay:(Net.Delay.Uniform (1, 6)) () in
  auto_stop ~duration:4 r;
  for pid = 0 to n - 1 do
    auto_rehungry ~gap:3 r pid;
    ignore (Sim.Engine.schedule r.engine ~at:pid (fun () -> r.inst.become_hungry pid))
  done;
  Sim.Engine.run r.engine ~until:500;
  let words = words_for_10_checks r in
  check bool "the world made progress" true (Dining.Algorithm.total_eats r.algo > n);
  check (Alcotest.float 0.) "words for 10 checks" 0. words;
  (* A warm contended clique of 16: every process re-hungry at once,
     one crashed mid-run, so every lane of the counters has moved and
     messages are in transit and absorbed. *)
  let n = 16 in
  let clique =
    List.concat (List.init n (fun i -> List.init (n - 1 - i) (fun d -> (i, i + 1 + d))))
  in
  let r = rig ~n ~edges:clique ~delay:(Net.Delay.Uniform (1, 6)) () in
  auto_stop ~duration:20 r;
  for pid = 0 to n - 1 do
    auto_rehungry ~gap:1 r pid;
    r.inst.become_hungry pid
  done;
  Net.Faults.schedule_crash r.faults ~pid:5 ~at:300;
  let stats = Dining.Algorithm.network_stats r.algo in
  let in_transit () =
    Net.Link_stats.total_sent stats
    > Net.Link_stats.total_delivered stats + Net.Link_stats.total_dropped stats
  in
  let until = ref 2_000 in
  Sim.Engine.run r.engine ~until:!until;
  while (not (in_transit ())) && !until < 3_000 do
    incr until;
    Sim.Engine.run r.engine ~until:!until
  done;
  let words = words_for_10_checks r in
  check bool "the clique made progress" true (Dining.Algorithm.total_eats r.algo > n);
  check bool "messages were absorbed" true (Net.Link_stats.total_dropped stats > 0);
  check bool "messages are in transit" true (in_transit ());
  check (Alcotest.float 0.) "words for 10 clique checks" 0. words

(* The check's lane arithmetic against byte-at-a-time arithmetic. *)
let lane w k = (w lsr (8 * k)) land 0xFF

let bytewise_sub a b =
  List.fold_left
    (fun acc k -> acc lor (((lane a k - lane b k) land 0xFF) lsl (8 * k)))
    0 [ 0; 1; 2; 3 ]

let bytewise_sum w = lane w 0 + lane w 1 + lane w 2 + lane w 3

(* Every pair of byte values in every lane, beside lanes that hold the
   other operand's value, so borrows next to the lane are exercised. *)
let lane_arithmetic_exhaustive () =
  let spread v k = (v lor (v lsl 8) lor (v lsl 16) lor (v lsl 24)) land lnot (0xFF lsl (8 * k)) in
  for k = 0 to 3 do
    for x = 0 to 255 do
      for y = 0 to 255 do
        let a = spread y k lor (x lsl (8 * k)) and b = spread x k lor (y lsl (8 * k)) in
        if Dining.Algorithm.lane_sub a b <> bytewise_sub a b then
          Alcotest.failf "lane_sub 0x%08x 0x%08x = 0x%08x, expected 0x%08x" a b
            (Dining.Algorithm.lane_sub a b) (bytewise_sub a b);
        if Dining.Algorithm.lane_sum a <> bytewise_sum a then
          Alcotest.failf "lane_sum 0x%08x = %d, expected %d" a (Dining.Algorithm.lane_sum a)
            (bytewise_sum a)
      done
    done
  done

let word32 =
  QCheck.map (fun (hi, lo) -> (hi lsl 16) lor lo) QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))

let lane_arithmetic_random =
  QCheck.Test.make ~name:"lane arithmetic equals byte-at-a-time on random words" ~count:2_000
    QCheck.(pair word32 word32)
    (fun (a, b) ->
      Dining.Algorithm.lane_sub a b = bytewise_sub a b
      && Dining.Algorithm.lane_sum a = bytewise_sum a
      && Dining.Algorithm.lane_sum b = bytewise_sum b)

(* Once the world is quiet, one drop the slot counters never saw fails
   the absorbed-count check. [record_drop] must match a message in
   flight, so a send goes first: the two leave the edge with nothing in
   transit and one message absorbed. *)
let slot_counters_checked_against_drops () =
  let r = rig ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ] ~detector:`Never () in
  auto_stop ~duration:2 r;
  for pid = 0 to 3 do
    r.inst.become_hungry pid
  done;
  Sim.Engine.run_all r.engine;
  check int "every process ate" 4 (Dining.Algorithm.total_eats r.algo);
  Dining.Algorithm.check_invariants r.algo;
  let stats = Dining.Algorithm.network_stats r.algo in
  let slot = Cgraph.Graph.dir_index r.graph 2 3 in
  ignore (Net.Link_stats.record_send stats ~slot ~at:0 ~deliver_at:0);
  Net.Link_stats.record_drop stats ~slot;
  Alcotest.check_raises "unaccounted drop"
    (Dining.Types.Invariant_violation
       "edge (2,3): 0 messages absorbed by the slot counters, 1 by the network") (fun () ->
      Dining.Algorithm.check_invariants r.algo)

let suite =
  [
    Alcotest.test_case "initial fork/token placement" `Quick initial_placement;
    Alcotest.test_case "rejects improper colorings" `Quick rejects_improper_colors;
    Alcotest.test_case "lone hungry process eats" `Quick lone_hungry_process_eats;
    Alcotest.test_case "high-priority diner eats" `Quick high_priority_diner_eats_too;
    Alcotest.test_case "external actions are guarded" `Quick become_hungry_idempotent;
    Alcotest.test_case "scripted handshake timeline" `Quick scripted_timeline;
    Alcotest.test_case "exclusion with an accurate oracle" `Quick no_simultaneous_eating_when_accurate;
    Alcotest.test_case "false positives can violate exclusion (allowed by evp-WX)" `Quick
      false_positive_can_cause_violation;
    Alcotest.test_case "crash while eating does not block neighbors" `Quick
      crash_while_eating_does_not_block_neighbor;
    Alcotest.test_case "crash outside doorway does not block neighbors" `Quick
      crash_outside_doorway_does_not_block_neighbor;
    Alcotest.test_case "Never detector starves (Choy-Singh limitation)" `Quick
      never_detector_starves_neighbor_of_crashed;
    Alcotest.test_case "quiescence toward crashed processes" `Quick quiescence_toward_crashed;
    Alcotest.test_case "channel capacity <= 4" `Quick channel_capacity_bound;
    Alcotest.test_case "footprint matches the closed form" `Quick footprint_formula;
    Alcotest.test_case "2-bounded waiting on a contended pair" `Quick eventual_2_bounded_waiting_pair;
    Alcotest.test_case "eat accounting" `Quick total_eats_accounting;
    Alcotest.test_case "debug dumps" `Quick debug_dump;
    Alcotest.test_case "ack budget: default is the paper's k = 2" `Quick ack_budget_default_bound;
    Alcotest.test_case "ack budget: m = 3 gives k = 4" `Quick ack_budget_relaxed_bound;
    Alcotest.test_case "ack budget: validation" `Quick ack_budget_validated;
    Alcotest.test_case "message kinds and sizes" `Quick message_kind_labels;
    Alcotest.test_case "emits to the engine's recorder" `Quick emits_to_engine_recorder;
    Alcotest.test_case "create copies the colors" `Quick colors_are_copied;
    Alcotest.test_case "a passing check_invariants allocates nothing" `Quick
      check_invariants_allocates_nothing;
    Alcotest.test_case "ack budget: at most 255" `Quick ack_budget_fits_a_byte;
    Alcotest.test_case "slot counters are checked against the network" `Quick
      slot_counters_checked_against_network;
    Alcotest.test_case "absorbed counts are checked against the network" `Quick
      slot_counters_checked_against_drops;
    Alcotest.test_case "lane arithmetic: every byte pair in every lane" `Quick
      lane_arithmetic_exhaustive;
    QCheck_alcotest.to_alcotest lane_arithmetic_random;
  ]
