type result = {
  scenario : Harness.Scenario.t;
  steps : int;
  attempts : int;
  actions : string list;
}

(* Jump to the family's minimal instance first (one accepted step skips
   the whole descent), then decrement. Random graphs also try the
   structured minimum, since a violation rarely needs the exact graph. *)
let shrink_topology (t : Cgraph.Topology.spec) : Cgraph.Topology.spec list =
  match t with
  | Cgraph.Topology.Ring n -> if n > 3 then [ Cgraph.Topology.Ring 3; Cgraph.Topology.Ring (n - 1) ] else []
  | Cgraph.Topology.Path n -> if n > 2 then [ Cgraph.Topology.Path 2; Cgraph.Topology.Path (n - 1) ] else []
  | Cgraph.Topology.Clique n ->
      if n > 2 then [ Cgraph.Topology.Clique 2; Cgraph.Topology.Clique (n - 1) ] else []
  | Cgraph.Topology.Star n -> if n > 2 then [ Cgraph.Topology.Star 2; Cgraph.Topology.Star (n - 1) ] else []
  | Cgraph.Topology.Grid (r, c) ->
      List.concat
        [
          (if r * c > 2 then [ Cgraph.Topology.Grid (1, 2) ] else []);
          (if r > 1 && (r - 1) * c >= 2 then [ Cgraph.Topology.Grid (r - 1, c) ] else []);
          (if c > 1 && r * (c - 1) >= 2 then [ Cgraph.Topology.Grid (r, c - 1) ] else []);
        ]
  | Cgraph.Topology.Torus (r, c) ->
      List.concat
        [
          (if r > 3 || c > 3 then [ Cgraph.Topology.Torus (3, 3) ] else []);
          (if r > 3 then [ Cgraph.Topology.Torus (r - 1, c) ] else []);
          (if c > 3 then [ Cgraph.Topology.Torus (r, c - 1) ] else []);
        ]
  | Cgraph.Topology.Binary_tree n ->
      if n > 2 then [ Cgraph.Topology.Binary_tree 2; Cgraph.Topology.Binary_tree (n - 1) ] else []
  | Cgraph.Topology.Hypercube d ->
      if d > 1 then [ Cgraph.Topology.Hypercube 1; Cgraph.Topology.Hypercube (d - 1) ] else []
  | Cgraph.Topology.Wheel n -> if n > 4 then [ Cgraph.Topology.Wheel 4; Cgraph.Topology.Wheel (n - 1) ] else []
  | Cgraph.Topology.Bipartite (a, b) ->
      List.concat
        [
          (if a * b > 1 then [ Cgraph.Topology.Bipartite (1, 1) ] else []);
          (if a > 1 then [ Cgraph.Topology.Bipartite (a - 1, b) ] else []);
          (if b > 1 then [ Cgraph.Topology.Bipartite (a, b - 1) ] else []);
        ]
  | Cgraph.Topology.Random_gnp (n, p, seed) ->
      List.concat
        [
          [ Cgraph.Topology.Ring 3; Cgraph.Topology.Path 2 ];
          (if n > 2 then [ Cgraph.Topology.Random_gnp (n - 1, p, seed) ] else []);
        ]
  | Cgraph.Topology.Scale_free (n, m, seed) ->
      List.concat
        [
          [ Cgraph.Topology.Ring 3; Cgraph.Topology.Path 2 ];
          (if n > m + 1 then [ Cgraph.Topology.Scale_free (n - 1, m, seed) ] else []);
          (if m > 1 then [ Cgraph.Topology.Scale_free (n, m - 1, seed) ] else []);
        ]

let shrink_crashes (c : Harness.Scenario.crash_plan) :
    (string * Harness.Scenario.crash_plan) list =
  match c with
  | Harness.Scenario.No_crashes -> []
  | Harness.Scenario.Crash_at [] -> [ ("drop crash plan", Harness.Scenario.No_crashes) ]
  | Harness.Scenario.Crash_at l ->
      ("drop crash plan", Harness.Scenario.No_crashes)
      :: List.mapi
           (fun i _ ->
             ( Printf.sprintf "drop crash %d" i,
               Harness.Scenario.Crash_at (List.filteri (fun j _ -> j <> i) l) ))
           l
  | Harness.Scenario.Random_crashes r ->
      ("drop crash plan", Harness.Scenario.No_crashes)
      :: (if r.count > 1 then
            [
              ( "single crash",
                Harness.Scenario.Random_crashes { r with count = 1 } );
              ( "fewer crashes",
                Harness.Scenario.Random_crashes { r with count = r.count - 1 } );
            ]
          else [])

let candidates (s : Harness.Scenario.t) : (string * Harness.Scenario.t) list =
  let topo =
    List.map
      (fun t ->
        (Printf.sprintf "topology -> %s" (Cgraph.Topology.name t), { s with topology = t }))
      (shrink_topology s.topology)
  in
  let crashes = List.map (fun (l, c) -> (l, { s with crashes = c })) (shrink_crashes s.crashes) in
  let horizon =
    if s.horizon > 2_000 then
      [
        ( Printf.sprintf "horizon -> %d" (max 2_000 (s.horizon / 2)),
          { s with horizon = max 2_000 (s.horizon / 2) } );
        ( Printf.sprintf "horizon -> %d" (max 2_000 (s.horizon * 3 / 4)),
          { s with horizon = max 2_000 (s.horizon * 3 / 4) } );
      ]
    else []
  in
  (* Every candidate must differ from the current scenario, or the
     descent would accept a no-op step forever. *)
  let delay =
    match s.delay with
    | Net.Delay.Fixed 1 -> []
    | Net.Delay.Uniform (1, 8) -> [ ("delay -> fixed:1", { s with delay = Net.Delay.Fixed 1 }) ]
    | _ ->
        [
          ("delay -> fixed:1", { s with delay = Net.Delay.Fixed 1 });
          ("delay -> uniform:1:8", { s with delay = Net.Delay.Uniform (1, 8) });
        ]
  in
  let detector =
    match s.detector with
    | Harness.Scenario.Oracle o when o.fp_per_edge > 0 ->
        [
          ( "oracle without false positives",
            {
              s with
              detector =
                Harness.Scenario.Oracle
                  { o with fp_per_edge = 0; fp_window = 0; fp_max_len = 1 };
            } );
        ]
    | _ -> []
  in
  let workload =
    if s.workload = Harness.Scenario.default_workload then []
    else [ ("default workload", { s with workload = Harness.Scenario.default_workload }) ]
  in
  let acks =
    if s.acks_per_session > 1 then [ ("acks -> 1", { s with acks_per_session = 1 }) ]
    else []
  in
  List.concat [ topo; crashes; horizon; delay; detector; workload; acks ]

(* Candidate evaluations one minimization may spend. *)
let max_attempts = 300

let minimize ~still_failing s0 =
  let attempts = ref 0 in
  let reproduces s =
    !attempts < max_attempts
    && begin
         incr attempts;
         match still_failing s with
         | verdict -> verdict
         | exception Invalid_argument _ -> false
       end
  in
  let rec descend s steps actions =
    match List.find_opt (fun (_, c) -> reproduces c) (candidates s) with
    | Some (label, c) -> descend c (steps + 1) (label :: actions)
    | None -> { scenario = s; steps; attempts = !attempts; actions = List.rev actions }
  in
  descend s0 0 []
