(* Tests for the runtime monitors, driven through a scripted mock daemon
   so that transition timing is fully controlled. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

type mock = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  inst : Dining.Instance.t;
  fire : int -> Dining.Types.phase -> unit;
  door : int -> unit;
}

let mock ?(n = 3) ?(edges = [ (0, 1); (1, 2) ]) () =
  let engine = Sim.Engine.create () in
  let graph = Cgraph.Graph.of_edges ~n edges in
  let faults = Net.Faults.create engine ~n in
  let listeners = ref [] in
  let doorway_listeners = ref [] in
  let phases = Array.make n Dining.Types.Thinking in
  let inst =
    {
      Dining.Instance.name = "mock";
      become_hungry = (fun _ -> ());
      stop_eating = (fun _ -> ());
      phase = (fun pid -> phases.(pid));
      eats = (fun _ -> 0);
      add_listener = (fun f -> listeners := !listeners @ [ f ]);
      add_doorway_listener = (fun f -> doorway_listeners := !doorway_listeners @ [ f ]);
      check_invariants = (fun () -> ());
    }
  in
  let fire pid phase =
    phases.(pid) <- phase;
    List.iter (fun f -> f pid phase) !listeners
  in
  let door pid = List.iter (fun f -> f pid) !doorway_listeners in
  { engine; faults; graph; inst; fire; door }

(* Schedule a scripted transition at a virtual time. *)
let at m t pid phase = ignore (Sim.Engine.schedule m.engine ~at:t (fun () -> m.fire pid phase))

(* Schedule a doorway entry, as the Song-Pike core announces it. *)
let enter_doorway m pid t = ignore (Sim.Engine.schedule m.engine ~at:t (fun () -> m.door pid))

(* ----------------------------- Exclusion --------------------------- *)

let exclusion_detects_overlap () =
  let m = mock () in
  let ex = Monitor.Exclusion.attach m.engine m.graph m.faults m.inst in
  at m 10 0 Dining.Types.Eating;
  at m 20 1 Dining.Types.Eating;
  (* neighbors 0-1 overlap *)
  at m 30 0 Dining.Types.Thinking;
  at m 40 2 Dining.Types.Eating;
  (* 1 still eating and 1-2 are neighbors: second violation *)
  Sim.Engine.run_all m.engine;
  check int "two violations" 2 (Monitor.Exclusion.count ex);
  check bool "last at 40" true (Monitor.Exclusion.last_violation_time ex = Some 40);
  check int "after t=35" 1 (Monitor.Exclusion.count_after ex 35);
  match Monitor.Exclusion.violations ex with
  | [ v1; v2 ] ->
      check int "first eater" 1 v1.Monitor.Exclusion.eater;
      check int "first neighbor" 0 v1.Monitor.Exclusion.neighbor;
      check int "second eater" 2 v2.Monitor.Exclusion.eater
  | _ -> Alcotest.fail "expected 2 violations"

let exclusion_ignores_non_neighbors_and_crashed () =
  let m = mock () in
  let ex = Monitor.Exclusion.attach m.engine m.graph m.faults m.inst in
  (* 0 and 2 are not neighbors. *)
  at m 10 0 Dining.Types.Eating;
  at m 20 2 Dining.Types.Eating;
  (* A crashed eater does not count as a live violation partner. *)
  Net.Faults.schedule_crash m.faults ~pid:0 ~at:30;
  at m 40 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  check int "no violations" 1 (Monitor.Exclusion.count ex);
  (* wait: 1 eats at 40 while 2 (live) is eating and 1-2 are neighbors *)
  check bool "only live pair recorded" true
    ((List.hd (Monitor.Exclusion.violations ex)).Monitor.Exclusion.neighbor = 2)

(* ----------------------------- Fairness ---------------------------- *)

let fairness_counts_consecutive () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  (* 1 eats three times while 0 stays hungry *)
  at m 20 1 Dining.Types.Eating;
  at m 25 1 Dining.Types.Thinking;
  at m 30 1 Dining.Types.Eating;
  at m 35 1 Dining.Types.Thinking;
  at m 40 1 Dining.Types.Eating;
  at m 45 1 Dining.Types.Thinking;
  (* 0 finally eats: counter resets *)
  at m 50 0 Dining.Types.Eating;
  at m 55 0 Dining.Types.Thinking;
  at m 60 0 Dining.Types.Hungry;
  at m 70 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  check int "max consecutive 3" 3 (Monitor.Fairness.max_consecutive fair);
  check int "after reset only 1" 1 (Monitor.Fairness.max_consecutive_for_sessions_from fair 60);
  check int "session boundary respected" 3
    (Monitor.Fairness.max_consecutive_for_sessions_from fair 10)

let fairness_windowed_series () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  let windowed_max = Monitor.Fairness.windowed_max fair ~window:100 ~horizon:200 in
  at m 5 0 Dining.Types.Hungry;
  at m 10 1 Dining.Types.Eating;
  at m 15 1 Dining.Types.Thinking;
  at m 110 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  let series = windowed_max () in
  check bool "window 0 has count 1" true (List.nth series 0 = (0.0, 1.0));
  check bool "window 1 has count 2" true (List.nth series 1 = (100.0, 2.0))

let fairness_ignores_crashed_victims () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  at m 5 0 Dining.Types.Hungry;
  Net.Faults.schedule_crash m.faults ~pid:0 ~at:8;
  at m 10 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  check int "no overtakes of crashed victims" 0 (Monitor.Fairness.max_consecutive fair)

(* ----------------------------- Response ---------------------------- *)

let response_latency () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  at m 35 0 Dining.Types.Eating;
  at m 40 0 Dining.Types.Thinking;
  at m 50 1 Dining.Types.Hungry;
  (* 1 never served: open session *)
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "one completed session of 25" [ 25 ] (Monitor.Response.durations resp);
  check int "served count" 1 (Monitor.Response.served_count resp);
  check bool "open session for 1" true (Monitor.Response.open_sessions resp = [ (1, 50) ])

let response_starvation_threshold () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  at m 10 1 Dining.Types.Hungry;
  at m 5_000 1 Dining.Types.Eating;
  ignore (Sim.Engine.schedule m.engine ~at:20_000 (fun () -> ()));
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "0 starved at patience 10k" [ 0 ] (Monitor.Response.starved resp ~older_than:10_000);
  check (Alcotest.list int) "nobody starved at patience 30k" []
    (Monitor.Response.starved resp ~older_than:30_000)

let response_crashed_not_starved () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  Net.Faults.schedule_crash m.faults ~pid:0 ~at:100;
  ignore (Sim.Engine.schedule m.engine ~at:20_000 (fun () -> ()));
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "crashed hungry process is not a starvation" []
    (Monitor.Response.starved resp ~older_than:1_000)

let response_series_buckets () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  let response_series = Monitor.Response.response_series resp ~bucket:100 in
  at m 0 0 Dining.Types.Hungry;
  at m 50 0 Dining.Types.Eating;
  at m 60 0 Dining.Types.Thinking;
  at m 100 0 Dining.Types.Hungry;
  at m 130 0 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  let series = response_series () in
  check bool "bucket 0 mean 50" true (List.mem (0.0, 50.0) series);
  check bool "bucket 100 mean 30" true (List.mem (100.0, 30.0) series)

(* -------------------------- Doorway split -------------------------- *)

let phases_split () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  enter_doorway m 0 40;
  at m 55 0 Dining.Types.Eating;
  at m 60 0 Dining.Types.Thinking;
  (* A second session that never completes. *)
  at m 100 0 Dining.Types.Hungry;
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "doorway wait" [ 30 ] (Monitor.Response.doorway_waits resp);
  check (Alcotest.list int) "fork wait" [ 15 ] (Monitor.Response.fork_waits resp);
  check int "open session not sampled" 1 (Monitor.Response.doorway_summary resp).count

let phases_real_algorithm () =
  (* End to end against the real core on a pair: both splits sum to the
     full response latency. *)
  let graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:2 in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 5)
      ~rng:(Sim.Rng.create 1L) ~detector:(Fd.Never.create ()) ()
  in
  let inst = Dining.Algorithm.instance algo in
  let resp = Monitor.Response.attach engine faults inst in
  inst.become_hungry 0;
  Sim.Engine.run engine ~until:200;
  match
    (Monitor.Response.doorway_waits resp, Monitor.Response.fork_waits resp, Monitor.Response.durations resp)
  with
  | [ d ], [ f ], [ total ] ->
      check int "splits sum to the response" total (d + f);
      check bool "doorway took the ping round trip" true (d >= 10)
  | _ -> Alcotest.fail "expected exactly one completed session"

(* ----------------------- Slot-indexed state ------------------------ *)

(* A hub overtaken by several leaves: each (victim, overtaker) pair keeps
   its own count, and every one of them resets when the hub eats. *)
let fairness_star_pairs_counted_apart () =
  let m = mock ~n:4 ~edges:[ (0, 1); (0, 2); (0, 3) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  let eat leaf t =
    at m t leaf Dining.Types.Eating;
    at m (t + 1) leaf Dining.Types.Thinking
  in
  at m 10 0 Dining.Types.Hungry;
  List.iter (fun (leaf, t) -> eat leaf t) [ (1, 20); (2, 22); (3, 24); (1, 26); (3, 28); (3, 30) ];
  at m 40 0 Dining.Types.Eating;
  at m 45 0 Dining.Types.Thinking;
  at m 50 0 Dining.Types.Hungry;
  List.iter (fun (leaf, t) -> eat leaf t) [ (1, 60); (2, 62); (3, 64) ];
  Sim.Engine.run_all m.engine;
  let overtakes = Monitor.Fairness.overtakes fair in
  let counts leaf =
    List.filter_map
      (fun (o : Monitor.Fairness.overtake) -> if o.overtaker = leaf then Some o.count else None)
      overtakes
  in
  check bool "the hub is every victim" true
    (List.for_all (fun (o : Monitor.Fairness.overtake) -> o.victim = 0) overtakes);
  check (Alcotest.list int) "leaf 1" [ 1; 2; 1 ] (counts 1);
  check (Alcotest.list int) "leaf 2" [ 1; 1 ] (counts 2);
  check (Alcotest.list int) "leaf 3" [ 1; 2; 3; 1 ] (counts 3)

(* Time 0 is a real session start, not "not hungry". *)
let fairness_session_from_time_zero () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  at m 0 0 Dining.Types.Hungry;
  at m 5 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  match Monitor.Fairness.overtakes fair with
  | [ o ] ->
      check int "count" 1 o.count;
      check int "session started at 0" 0 o.session_start
  | l -> Alcotest.failf "expected 1 overtake, got %d" (List.length l)

let response_open_sessions_sorted () =
  let m = mock ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  List.iter (fun (pid, t) -> at m t pid Dining.Types.Hungry) [ (3, 10); (0, 20); (2, 30); (1, 40) ];
  Net.Faults.schedule_crash m.faults ~pid:2 ~at:50;
  ignore (Sim.Engine.schedule m.engine ~at:100 (fun () -> ()));
  Sim.Engine.run_all m.engine;
  check
    (Alcotest.list (Alcotest.pair int int))
    "ascending by pid, crashed pid skipped"
    [ (0, 20); (1, 40); (3, 10) ]
    (Monitor.Response.open_sessions resp)

(* Thinking abandons the session: a later doorway mark has no hungry
   start to measure from, and a later eat has no doorway entry. *)
let phases_thinking_clears () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  enter_doorway m 0 20;
  at m 30 0 Dining.Types.Thinking;
  enter_doorway m 0 40;
  at m 50 0 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "only the first doorway wait" [ 10 ] (Monitor.Response.doorway_waits resp);
  check (Alcotest.list int) "no fork wait" [] (Monitor.Response.fork_waits resp)

(* ---------------- Streaming vs log-based reference ---------------- *)

(* One scripted mock drives the streaming monitors and the log-based
   references in [Monitor_ref] side by side; every query must agree, at
   a pause mid-run (open groups and sessions) and at the end. *)

type step = Phase of int * Dining.Types.phase | Crash of int | Mark of int

type script = {
  n : int;
  edges : (int * int) list;
  steps : (int * step) list; (* (time, step), times ascending *)
  pause : int;
  cutoffs : int list;
  windows : (int * int) list; (* (window, horizon) *)
  buckets : int list;
}

(* Pid 0 is overtaken by 1 across Hungry -> Thinking -> Hungry, then
   eats, thinks and turns hungry again within the same tick — a new
   session with the same start time — and is then overtaken six times
   in a row, more than a group keeps inline. *)
let prelude =
  List.map
    (fun (pid, ph) -> (0, Phase (pid, ph)))
    Dining.Types.(
      [
        (0, Hungry); (1, Eating); (1, Thinking); (0, Thinking); (0, Hungry); (1, Eating);
        (0, Eating); (0, Thinking); (0, Hungry); (1, Eating);
      ]
      @ List.concat (List.init 6 (fun _ -> [ (1, Thinking); (1, Eating) ])))

let gen_script =
  let open QCheck.Gen in
  let* n = int_range 2 6 in
  let pairs = List.concat (List.init n (fun i -> List.init (n - i - 1) (fun d -> (i, i + d + 1)))) in
  let* keep = list_repeat (List.length pairs) bool in
  let edges =
    (0, 1)
    :: List.filter_map (fun (e, k) -> if k && e <> (0, 1) then Some e else None) (List.combine pairs keep)
  in
  let phase = oneofl Dining.Types.[ Hungry; Eating; Thinking ] in
  let step =
    frequency
      [
        (12, map2 (fun pid ph -> Phase (pid, ph)) (int_bound (n - 1)) phase);
        (1, map (fun pid -> Crash pid) (int_bound (n - 1)));
        (3, map (fun pid -> Mark pid) (int_bound (n - 1)));
      ]
  in
  let gap = frequency [ (5, return 0); (3, int_range 1 3); (1, int_range 4 40) ] in
  let* raw = list_size (int_bound 300) (pair gap step) in
  let _, rev =
    List.fold_left (fun (t, acc) (g, st) -> (t + g, (t + g, st) :: acc)) (0, List.rev prelude) raw
  in
  let steps = List.rev rev in
  let last = List.fold_left (fun acc (t, _) -> max acc t) 0 steps in
  let time = int_range (-1) (last + 2) in
  let* pause = time in
  let* cutoffs = list_size (int_range 1 6) time in
  let* windows = list_size (int_range 1 3) (pair (int_range 1 50) (int_range 0 (last + 10))) in
  let* buckets = list_size (int_range 1 3) (int_range 1 50) in
  return { n; edges; steps; pause; cutoffs; windows; buckets }

let show_script s =
  let step = function
    | Phase (pid, ph) -> Printf.sprintf "p%d:%s" pid (Dining.Types.phase_to_string ph)
    | Crash pid -> Printf.sprintf "crash p%d" pid
    | Mark pid -> Printf.sprintf "door p%d" pid
  in
  Printf.sprintf "n=%d edges=[%s] pause=%d cutoffs=[%s] windows=[%s] buckets=[%s]\n%s" s.n
    (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) s.edges))
    s.pause
    (String.concat ";" (List.map string_of_int s.cutoffs))
    (String.concat ";" (List.map (fun (w, h) -> Printf.sprintf "%d/%d" w h) s.windows))
    (String.concat ";" (List.map string_of_int s.buckets))
    (String.concat " " (List.map (fun (t, st) -> Printf.sprintf "%d:%s" t (step st)) s.steps))

let last_n k l =
  let drop = List.length l - k in
  List.filteri (fun i _ -> i >= drop) l

let streaming_matches_reference =
  QCheck.Test.make ~name:"streaming monitors = log-based reference" ~count:400
    (QCheck.make ~print:show_script gen_script)
    (fun s ->
      let m = mock ~n:s.n ~edges:s.edges () in
      let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
      let resp = Monitor.Response.attach m.engine m.faults m.inst in
      let fair_ref = Monitor_ref.Fairness.attach m.engine m.graph m.faults m.inst in
      let resp_ref = Monitor_ref.Response.attach m.engine m.faults m.inst in
      let ph_ref = Monitor_ref.Phases.attach ~n:s.n m.engine m.inst in
      let windowed =
        List.map
          (fun (window, horizon) -> (window, horizon, Monitor.Fairness.windowed_max fair ~window ~horizon))
          s.windows
      in
      let series =
        List.map (fun bucket -> (bucket, Monitor.Response.response_series resp ~bucket)) s.buckets
      in
      let served = ref [] in
      Monitor.Response.on_served resp (fun pid started at ->
          served := { Monitor.Response.pid; started; served = at } :: !served);
      List.iter
        (fun (t, st) ->
          match st with
          | Phase (pid, phase) -> at m t pid phase
          | Crash pid -> Net.Faults.schedule_crash m.faults ~pid ~at:t
          | Mark pid -> enter_doorway m pid t)
        s.steps;
      let sorted = List.sort compare in
      let agree () =
        Monitor.Fairness.max_consecutive fair = Monitor_ref.Fairness.max_consecutive fair_ref
        && List.for_all
             (fun c ->
               Monitor.Fairness.max_consecutive_for_sessions_from fair c
               = Monitor_ref.Fairness.max_consecutive_for_sessions_from fair_ref c
               && Monitor.Fairness.max_consecutive_after fair c
                  = Monitor_ref.Fairness.max_consecutive_after fair_ref c)
             s.cutoffs
        && List.for_all
             (fun (window, horizon, read) ->
               read () = Monitor_ref.Fairness.windowed_max fair_ref ~window ~horizon)
             windowed
        && Monitor.Fairness.overtakes fair
           = last_n Monitor.Fairness.recent_size (Monitor_ref.Fairness.overtakes fair_ref)
        && List.for_all
             (fun (bucket, read) -> read () = Monitor_ref.Response.response_series resp_ref ~bucket)
             series
        && List.rev !served = Monitor_ref.Response.completed resp_ref
        && Monitor.Response.completed resp
           = last_n Monitor.Response.recent_size (Monitor_ref.Response.completed resp_ref)
        && Monitor.Response.durations resp = sorted (Monitor_ref.Response.durations resp_ref)
        && Monitor.Response.summary resp = Monitor_ref.Response.summary resp_ref
        && Monitor.Response.served_count resp = Monitor_ref.Response.served_count resp_ref
        && Monitor.Response.open_sessions resp = Monitor_ref.Response.open_sessions resp_ref
        && Monitor.Response.doorway_waits resp = sorted (Monitor_ref.Phases.doorway_waits ph_ref)
        && Monitor.Response.fork_waits resp = sorted (Monitor_ref.Phases.fork_waits ph_ref)
        && Monitor.Response.doorway_summary resp = Monitor_ref.Phases.doorway_summary ph_ref
        && Monitor.Response.fork_summary resp = Monitor_ref.Phases.fork_summary ph_ref
      in
      Sim.Engine.run m.engine ~until:s.pause;
      let mid = agree () in
      Sim.Engine.run_all m.engine;
      mid && agree ())

(* Series and callbacks see every record, so they must exist before the
   first one. *)
let register_before_run () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  at m 20 1 Dining.Types.Eating;
  at m 30 0 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  Alcotest.check_raises "windowed_max after an overtake"
    (Invalid_argument "Fairness.windowed_max: register before the first overtake") (fun () ->
      ignore (Monitor.Fairness.windowed_max fair ~window:10 ~horizon:100 : unit -> _));
  Alcotest.check_raises "response_series after a session"
    (Invalid_argument "Response.response_series: register before the first session") (fun () ->
      ignore (Monitor.Response.response_series resp ~bucket:10 : unit -> _));
  Alcotest.check_raises "on_served after a session"
    (Invalid_argument "Response.on_served: register before the first session") (fun () ->
      Monitor.Response.on_served resp (fun _ _ _ -> ()))

let suite =
  [
    Alcotest.test_case "exclusion: detects overlapping neighbors" `Quick exclusion_detects_overlap;
    Alcotest.test_case "phases: splits at the doorway event" `Quick phases_split;
    Alcotest.test_case "phases: real algorithm splits sum" `Quick phases_real_algorithm;
    Alcotest.test_case "exclusion: non-neighbors and crashed ignored" `Quick
      exclusion_ignores_non_neighbors_and_crashed;
    Alcotest.test_case "fairness: consecutive counting and reset" `Quick fairness_counts_consecutive;
    Alcotest.test_case "fairness: windowed maxima" `Quick fairness_windowed_series;
    Alcotest.test_case "fairness: crashed victims ignored" `Quick fairness_ignores_crashed_victims;
    Alcotest.test_case "response: latency and open sessions" `Quick response_latency;
    Alcotest.test_case "response: starvation threshold" `Quick response_starvation_threshold;
    Alcotest.test_case "response: crashed processes not starved" `Quick response_crashed_not_starved;
    Alcotest.test_case "response: bucketed series" `Quick response_series_buckets;
    Alcotest.test_case "fairness: star hub counts each overtaker apart" `Quick
      fairness_star_pairs_counted_apart;
    Alcotest.test_case "fairness: a session may start at time 0" `Quick
      fairness_session_from_time_zero;
    Alcotest.test_case "response: open sessions ascend by pid" `Quick response_open_sessions_sorted;
    Alcotest.test_case "phases: thinking clears the session" `Quick phases_thinking_clears;
    QCheck_alcotest.to_alcotest streaming_matches_reference;
    Alcotest.test_case "series and callbacks register before the run" `Quick register_before_run;
  ]
