(* Tests for conflict graphs, topology generators and coloring. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let graph_basics () =
  let g = Cgraph.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  check int "n" 4 (Cgraph.Graph.n g);
  check int "edges" 4 (Cgraph.Graph.edge_count g);
  check bool "edge present" true (Cgraph.Graph.is_edge g 0 1);
  check bool "symmetric" true (Cgraph.Graph.is_edge g 1 0);
  check bool "absent" false (Cgraph.Graph.is_edge g 0 2);
  check bool "no self edge" false (Cgraph.Graph.is_edge g 1 1);
  check int "degree" 2 (Cgraph.Graph.degree g 0);
  check int "max degree" 2 (Cgraph.Graph.max_degree g)

let graph_dedup_and_orientation () =
  let g = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1); (2, 1) ] in
  check int "deduplicated" 2 (Cgraph.Graph.edge_count g);
  check bool "canonical edge list" true (Cgraph.Graph.edges g = [ (0, 1); (1, 2) ])

let graph_rejects_bad_input () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
      ignore (Cgraph.Graph.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "n = 0" (Invalid_argument "Graph.of_edges: n must be positive")
    (fun () -> ignore (Cgraph.Graph.of_edges ~n:0 []));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range (0, 7)") (fun () ->
      ignore (Cgraph.Graph.of_edges ~n:3 [ (0, 7) ]))

let graph_neighbors_sorted () =
  let g = Cgraph.Graph.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  check (Alcotest.list int) "sorted" [ 0; 1; 3; 4 ] (Array.to_list (Cgraph.Graph.neighbors g 2))

let graph_connectivity () =
  let connected = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let disconnected = Cgraph.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check bool "connected" true (Cgraph.Graph.is_connected connected);
  check bool "disconnected" false (Cgraph.Graph.is_connected disconnected)

let graph_distances () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Ring 6) in
  check (Alcotest.list int) "from 0" [ 0; 1; 2; 3; 2; 1 ]
    (Array.to_list (Cgraph.Graph.distances_from g 0));
  check (Alcotest.list int) "from 3" [ 3; 2; 1; 0; 1; 2 ]
    (Array.to_list (Cgraph.Graph.distances_from g 3));
  let disconnected = Cgraph.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check (Alcotest.list int) "unreachable = n" [ 0; 1; 4; 4 ]
    (Array.to_list (Cgraph.Graph.distances_from disconnected 0));
  Alcotest.check_raises "bad source" (Invalid_argument "Graph.distances_from: bad vertex")
    (fun () -> ignore (Cgraph.Graph.distances_from g 9))

let graph_to_dot () =
  let g = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let dot =
    Cgraph.Graph.to_dot g
      ~vertex_label:(fun i -> Printf.sprintf "p%d" i)
      ~vertex_color:(fun i -> if i = 1 then Some "red" else None)
  in
  let contains needle =
    let nl = String.length needle in
    let rec go i = i + nl <= String.length dot && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "edges rendered" true (contains "0 -- 1;" && contains "1 -- 2;");
  check bool "labels rendered" true (contains "label=\"p0\"");
  check bool "colors rendered" true (contains "fillcolor=\"red\"");
  check bool "valid dot skeleton" true (contains "graph conflict {" && contains "}")

(* ----------------------------- Topology ---------------------------- *)

let expected_shape = function
  | Cgraph.Topology.Ring n -> (n, n, 2)
  | Path n -> (n, n - 1, 2)
  | Clique n -> (n, n * (n - 1) / 2, n - 1)
  | Star n -> (n, n - 1, n - 1)
  | Grid (r, c) -> (r * c, (r * (c - 1)) + (c * (r - 1)), if r > 1 && c > 1 then 4 else 2)
  | Torus (r, c) -> (r * c, 2 * r * c, 4)
  | Binary_tree n -> (n, n - 1, -1)
  | Hypercube d -> (1 lsl d, d * (1 lsl (d - 1)), d)
  | Wheel n -> (n, 2 * (n - 1), n - 1)
  | Bipartite (a, b) -> (a + b, a * b, max a b)
  | Random_gnp (n, _, _) -> (n, -1, -1)
  | Scale_free (n, m, _) -> (n, m + ((n - m - 1) * m), -1)

let topology_shapes () =
  List.iter
    (fun spec ->
      let g = Cgraph.Topology.build spec in
      let n, m, delta = expected_shape spec in
      let name = Cgraph.Topology.name spec in
      check int (name ^ " vertices") n (Cgraph.Graph.n g);
      if m >= 0 then check int (name ^ " edges") m (Cgraph.Graph.edge_count g);
      if delta >= 0 && (match spec with Grid _ -> false | _ -> true) then
        check int (name ^ " max degree") delta (Cgraph.Graph.max_degree g);
      check bool (name ^ " connected") true (Cgraph.Graph.is_connected g))
    Cgraph.Topology.all_small

let topology_ring_structure () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Ring 6) in
  for i = 0 to 5 do
    check bool "ring edge" true (Cgraph.Graph.is_edge g i ((i + 1) mod 6))
  done

let topology_torus_regular () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Torus (3, 5)) in
  for i = 0 to Cgraph.Graph.n g - 1 do
    check int "4-regular" 4 (Cgraph.Graph.degree g i)
  done

let topology_wheel_structure () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Wheel 6) in
  for rim = 1 to 5 do
    check bool "hub connected to rim" true (Cgraph.Graph.is_edge g 0 rim);
    check int "rim degree" 3 (Cgraph.Graph.degree g rim)
  done;
  check bool "rim cycle closes" true (Cgraph.Graph.is_edge g 5 1)

let topology_bipartite_structure () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Bipartite (2, 3)) in
  check bool "cross edges" true (Cgraph.Graph.is_edge g 0 2 && Cgraph.Graph.is_edge g 1 4);
  check bool "no intra-side edges" true
    ((not (Cgraph.Graph.is_edge g 0 1)) && not (Cgraph.Graph.is_edge g 2 3));
  (* Bipartite graphs are 2-colorable; greedy achieves it. *)
  check int "2 colors suffice" 2
    (Cgraph.Coloring.color_count (Cgraph.Coloring.greedy g))

let topology_gnp_deterministic () =
  let a = Cgraph.Topology.build (Cgraph.Topology.Random_gnp (20, 0.3, 9L)) in
  let b = Cgraph.Topology.build (Cgraph.Topology.Random_gnp (20, 0.3, 9L)) in
  check bool "same seed same graph" true (Cgraph.Graph.edges a = Cgraph.Graph.edges b);
  let c = Cgraph.Topology.build (Cgraph.Topology.Random_gnp (20, 0.3, 10L)) in
  check bool "different seed different graph" true (Cgraph.Graph.edges a <> Cgraph.Graph.edges c)

let topology_rejects () =
  Alcotest.check_raises "tiny ring" (Invalid_argument "Topology.build: ring needs n >= 3")
    (fun () -> ignore (Cgraph.Topology.build (Cgraph.Topology.Ring 2)));
  Alcotest.check_raises "sf m too small"
    (Invalid_argument "Topology.build: scale_free needs m >= 1") (fun () ->
      ignore (Cgraph.Topology.build (Cgraph.Topology.Scale_free (10, 0, 1L))));
  Alcotest.check_raises "sf n too small"
    (Invalid_argument "Topology.build: scale_free needs n >= m + 1") (fun () ->
      ignore (Cgraph.Topology.build (Cgraph.Topology.Scale_free (3, 3, 1L))))

let topology_scale_free_structure () =
  List.iter
    (fun (n, m) ->
      let g = Cgraph.Topology.build (Cgraph.Topology.Scale_free (n, m, 7L)) in
      let label = Printf.sprintf "sf-%d-%d" n m in
      check int (label ^ " vertices") n (Cgraph.Graph.n g);
      (* Star seed contributes m edges, each later vertex m more; the
         attachment targets are distinct so no edges collapse. *)
      check int (label ^ " edges") (m + ((n - m - 1) * m)) (Cgraph.Graph.edge_count g);
      check bool (label ^ " connected") true (Cgraph.Graph.is_connected g);
      (* Every non-seed vertex attaches with exactly m stubs, so the
         minimum degree is m; preferential attachment must concentrate
         degree well above that somewhere (the hub). *)
      let min_deg = ref max_int in
      for v = 0 to n - 1 do
        min_deg := min !min_deg (Cgraph.Graph.degree g v)
      done;
      check int (label ^ " min degree") m !min_deg;
      check bool (label ^ " has a hub") true (Cgraph.Graph.max_degree g >= 2 * m))
    [ (50, 1); (200, 2); (300, 4) ];
  let a = Cgraph.Topology.build (Cgraph.Topology.Scale_free (120, 2, 5L)) in
  let b = Cgraph.Topology.build (Cgraph.Topology.Scale_free (120, 2, 5L)) in
  let c = Cgraph.Topology.build (Cgraph.Topology.Scale_free (120, 2, 6L)) in
  check bool "same seed same graph" true (Cgraph.Graph.edges a = Cgraph.Graph.edges b);
  check bool "different seed different graph" true (Cgraph.Graph.edges a <> Cgraph.Graph.edges c)

let topology_parse_roundtrip () =
  List.iter
    (fun (s, expected) ->
      match Cgraph.Topology.parse s with
      | Ok spec ->
          check Alcotest.string ("parse " ^ s) (Cgraph.Topology.name expected)
            (Cgraph.Topology.name spec)
      | Error e -> Alcotest.fail e)
    [
      ("ring:8", Cgraph.Topology.Ring 8);
      ("clique:5", Cgraph.Topology.Clique 5);
      ("grid:3x4", Cgraph.Topology.Grid (3, 4));
      ("torus:3x3", Cgraph.Topology.Torus (3, 3));
      ("gnp:10:0.25:4", Cgraph.Topology.Random_gnp (10, 0.25, 4L));
      ("cube:3", Cgraph.Topology.Hypercube 3);
      ("wheel:6", Cgraph.Topology.Wheel 6);
      ("bipartite:3x4", Cgraph.Topology.Bipartite (3, 4));
      ("sf:200:2:42", Cgraph.Topology.Scale_free (200, 2, 42L));
      ("sf:50:3", Cgraph.Topology.Scale_free (50, 3, 1L));
    ];
  check bool "garbage rejected" true (Result.is_error (Cgraph.Topology.parse "blorp:3"));
  check bool "bad dims rejected" true (Result.is_error (Cgraph.Topology.parse "grid:3y4"))

(* ----------------------------- Coloring ---------------------------- *)

let coloring_proper_on_standards () =
  List.iter
    (fun spec ->
      let g = Cgraph.Topology.build spec in
      let colors = Cgraph.Coloring.greedy g in
      check bool (Cgraph.Topology.name spec ^ " proper") true (Cgraph.Coloring.is_proper g colors);
      check bool
        (Cgraph.Topology.name spec ^ " <= delta+1 colors")
        true
        (Cgraph.Coloring.color_count colors <= Cgraph.Graph.max_degree g + 1))
    Cgraph.Topology.all_small

let coloring_proper_random =
  QCheck.Test.make ~name:"coloring: greedy proper on random graphs" ~count:100
    QCheck.(pair (int_range 2 24) (int_bound 10_000))
    (fun (n, seed) ->
      let g = Cgraph.Topology.build (Cgraph.Topology.Random_gnp (n, 0.3, Int64.of_int seed)) in
      let colors = Cgraph.Coloring.greedy g in
      Cgraph.Coloring.is_proper g colors
      && Cgraph.Coloring.color_count colors <= Cgraph.Graph.max_degree g + 1)

(* The counting-sort colouring over CSR rows equals the reference
   comparison-sort one, colour for colour. *)
let coloring_matches_reference () =
  List.iter
    (fun spec ->
      let g = Cgraph.Topology.build spec in
      check (Alcotest.array int)
        (Cgraph.Topology.name spec ^ " colours")
        (Coloring_ref.greedy g) (Cgraph.Coloring.greedy g))
    (Cgraph.Topology.[ Ring 3; Ring 101; Grid (7, 9); Clique 2; Clique 17; Star 12 ]
    @ Cgraph.Topology.all_small)

let coloring_matches_reference_random =
  QCheck.Test.make ~name:"coloring: greedy equals the reference on random graphs" ~count:100
    QCheck.(triple (int_range 2 40) (int_range 1 9) (int_bound 10_000))
    (fun (n, tenths, seed) ->
      let p = float_of_int tenths /. 10.0 in
      let g = Cgraph.Topology.build (Cgraph.Topology.Random_gnp (n, p, Int64.of_int seed)) in
      Cgraph.Coloring.greedy g = Coloring_ref.greedy g)

(* Set-up garbage: the colouring allocates its order, its colours and
   one array over the degrees, and no neighbour copies. *)
let coloring_allocates_its_arrays () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Ring 10_000) in
  let n = Cgraph.Graph.n g and dmax = Cgraph.Graph.max_degree g in
  let words = Alloc.words (fun () -> ignore (Sys.opaque_identity (Cgraph.Coloring.greedy g))) in
  check bool
    (Printf.sprintf "%.0f words <= 2n + max_degree + 64 = %d" words ((2 * n) + dmax + 64))
    true
    (words <= float_of_int ((2 * n) + dmax + 64))

let coloring_detects_improper () =
  let g = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  check bool "improper rejected" false (Cgraph.Coloring.is_proper g [| 1; 1 |]);
  check bool "wrong length rejected" false (Cgraph.Coloring.is_proper g [| 1 |]);
  check bool "negative rejected" false (Cgraph.Coloring.is_proper g [| -1; 1 |])

let coloring_clique_needs_n () =
  let g = Cgraph.Topology.build (Cgraph.Topology.Clique 5) in
  check int "clique-5 uses 5 colors" 5 (Cgraph.Coloring.color_count (Cgraph.Coloring.greedy g))

(* Every slot's reverse is the slot of the reversed pair, and
   reversing twice returns the slot. *)
let graph_reverse_slots () =
  List.iter
    (fun spec ->
      let g = Cgraph.Topology.build spec in
      let rev = Cgraph.Graph.rev_slots g in
      for s = 0 to Cgraph.Graph.dir_count g - 1 do
        let i = Cgraph.Graph.slot_src g s and j = Cgraph.Graph.slot_dst g s in
        check int "slot of (i, j)" s (Cgraph.Graph.dir_index g i j);
        check int "reverse is (j, i)" (Cgraph.Graph.dir_index g j i) rev.(s);
        check int "involution" s rev.(rev.(s))
      done)
    Cgraph.Topology.[ Ring 7; Grid (3, 4); Clique 5; Scale_free (60, 2, 42L) ]

(* ------------------------- CSR construction ------------------------ *)

let csr g : Graph_ref.t =
  {
    off = Cgraph.Graph.csr_offsets g;
    nbr = Cgraph.Graph.csr_targets g;
    rev = Cgraph.Graph.rev_slots g;
    edges = Cgraph.Graph.edges g;
  }

let check_csr label (expected : Graph_ref.t) (got : Graph_ref.t) =
  let arr = Alcotest.array int in
  check arr (label ^ " offsets") expected.off got.off;
  check arr (label ^ " targets") expected.nbr got.nbr;
  check arr (label ^ " rev_slots") expected.rev got.rev;
  check (Alcotest.list (Alcotest.pair int int)) (label ^ " edges") expected.edges got.edges

(* Every generator, through the flat pairs builder, yields the graph the
   tuple generators and the reference builder give: same edges,
   slots, reverses. *)
let graph_of_pairs_matches_reference () =
  List.iter
    (fun spec ->
      let g = Cgraph.Topology.build spec in
      let n = Cgraph.Graph.n g in
      let label = Cgraph.Topology.name spec in
      check_csr label
        (Graph_ref.of_edges ~ctx:"ref" ~n (Graph_ref.topology_edges spec))
        (csr g);
      let iterated = ref [] in
      Cgraph.Graph.iter_edges g (fun u v -> iterated := (u, v) :: !iterated);
      check bool (label ^ " iter_edges order") true (List.rev !iterated = Cgraph.Graph.edges g);
      check int (label ^ " edge_count") (List.length (Cgraph.Graph.edges g))
        (Cgraph.Graph.edge_count g))
    (Cgraph.Topology.all_small
    @ Cgraph.Topology.
        [
          Ring 100;
          Ring 1000;
          Grid (10, 10);
          Grid (32, 32);
          Scale_free (100, 2, 42L);
          Scale_free (1000, 2, 42L);
          Hypercube 10;
          Random_gnp (2, 0.0, 1L);
          Random_gnp (40, 0.0, 3L);
          Random_gnp (40, 1.0, 3L);
          Random_gnp (200, 0.01, 5L);
          Random_gnp (200, 0.1, 9L);
          Random_gnp (300, 0.5, 11L);
        ])

(* Builder result, or the message it raised. *)
let outcome build =
  match build () with g -> Ok g | exception Invalid_argument msg -> Error msg

(* Random pair arrays with duplicates in both orientations, and now and
   then an endpoint out of range or a self-loop: [of_pairs] and
   [of_edges] agree with the reference on the arrays or the message. *)
let graph_of_pairs_matches_reference_random =
  QCheck.Test.make ~name:"graph: of_pairs equals the reference on random pairs" ~count:300
    QCheck.(
      pair (int_range 1 24)
        (list_of_size (Gen.int_bound 60) (pair (int_bound 199) (int_bound 199))))
    (fun (n, raw) ->
      (* Draws 0 and 1 give an out-of-range endpoint (-1 or n), 1% of
         endpoints; the rest fold into range. A self-loop is kept when
         the first draw is a multiple of 7, and split otherwise. *)
      let endpoint x = if x = 0 then -1 else if x = 1 then n else x mod n in
      let pairs =
        Array.of_list
          (List.map
             (fun (x, y) ->
               let a = endpoint x and b = endpoint y in
               if a = b && n > 1 && x mod 7 <> 0 then (a, (a + 1) mod n) else (a, b))
             raw)
      in
      let flat = Array.make (2 * Array.length pairs) 0 in
      Array.iteri
        (fun i (a, b) ->
          flat.(2 * i) <- a;
          flat.((2 * i) + 1) <- b)
        pairs;
      let reference ctx = outcome (fun () -> Graph_ref.of_edges ~ctx ~n pairs) in
      let via_pairs = Result.map csr (outcome (fun () -> Cgraph.Graph.of_pairs ~n flat)) in
      let via_list =
        Result.map csr (outcome (fun () -> Cgraph.Graph.of_edges ~n (Array.to_list pairs)))
      in
      via_pairs = reference "Graph.of_pairs" && via_list = reference "Graph.of_edges")

let graph_of_pairs_rejects_bad_input () =
  let raises msg pairs =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Cgraph.Graph.of_pairs ~n:3 pairs))
  in
  raises "Graph.of_pairs: endpoint out of range (0, 7)" [| 0; 1; 0; 7 |];
  raises "Graph.of_pairs: endpoint out of range (-1, 2)" [| -1; 2 |];
  raises "Graph.of_pairs: self-loop" [| 0; 1; 2; 2 |];
  raises "Graph.of_pairs: odd number of endpoints" [| 0; 1; 2 |];
  Alcotest.check_raises "n = 0" (Invalid_argument "Graph.of_pairs: n must be positive")
    (fun () -> ignore (Cgraph.Graph.of_pairs ~n:0 [||]))

(* Set-up garbage: a generator allocates its graph and one pairs array
   of 2 words per pair it writes (2m, plus any duplicate that of_pairs
   drops), nothing per edge beyond that. Gnp also keeps one hit bit per
   candidate pair and its shuffled vertex order, and draws without
   boxing a float. *)
let topology_allocates_its_graph () =
  List.iter
    (fun spec ->
      let g = Cgraph.Topology.build spec in
      let reachable = Obj.reachable_words (Obj.repr g) in
      let n = Cgraph.Graph.n g in
      let pairs = 2 * Array.length (Graph_ref.topology_edges spec) in
      let scratch =
        match spec with
        | Cgraph.Topology.Random_gnp _ ->
            let bitset_bytes = ((n * (n - 1) / 2) + 7) / 8 in
            (bitset_bytes / 8) + 2 + (n + 1)
        | _ -> 0
      in
      let bound = reachable + pairs + scratch + 64 in
      let words =
        Alloc.words (fun () -> ignore (Sys.opaque_identity (Cgraph.Topology.build spec)))
      in
      check bool
        (Printf.sprintf "%s: %.0f words <= reachable + pairs + scratch + 64 = %d"
           (Cgraph.Topology.name spec) words bound)
        true
        (words <= float_of_int bound))
    Cgraph.Topology.
      [ Ring 10_000; Grid (100, 100); Scale_free (10_000, 2, 42L); Random_gnp (3000, 0.01, 5L) ]

let suite =
  [
    Alcotest.test_case "graph: basics" `Quick graph_basics;
    Alcotest.test_case "graph: dedup and canonical edges" `Quick graph_dedup_and_orientation;
    Alcotest.test_case "graph: rejects bad input" `Quick graph_rejects_bad_input;
    Alcotest.test_case "graph: neighbors sorted" `Quick graph_neighbors_sorted;
    Alcotest.test_case "graph: connectivity" `Quick graph_connectivity;
    Alcotest.test_case "graph: dot export" `Quick graph_to_dot;
    Alcotest.test_case "graph: bfs distances" `Quick graph_distances;
    Alcotest.test_case "topology: vertex/edge/degree counts" `Quick topology_shapes;
    Alcotest.test_case "topology: ring structure" `Quick topology_ring_structure;
    Alcotest.test_case "topology: torus regularity" `Quick topology_torus_regular;
    Alcotest.test_case "topology: wheel structure" `Quick topology_wheel_structure;
    Alcotest.test_case "topology: bipartite structure" `Quick topology_bipartite_structure;
    Alcotest.test_case "topology: gnp determinism" `Quick topology_gnp_deterministic;
    Alcotest.test_case "topology: scale-free structure" `Quick topology_scale_free_structure;
    Alcotest.test_case "topology: size validation" `Quick topology_rejects;
    Alcotest.test_case "topology: parser round-trips" `Quick topology_parse_roundtrip;
    Alcotest.test_case "coloring: proper on standard topologies" `Quick coloring_proper_on_standards;
    Seeded.to_alcotest coloring_proper_random;
    Alcotest.test_case "coloring: improper detection" `Quick coloring_detects_improper;
    Alcotest.test_case "coloring: clique lower bound" `Quick coloring_clique_needs_n;
    Alcotest.test_case "coloring: greedy equals the reference" `Quick coloring_matches_reference;
    Seeded.to_alcotest coloring_matches_reference_random;
    Alcotest.test_case "coloring: allocates its arrays and nothing else" `Quick
      coloring_allocates_its_arrays;
    Alcotest.test_case "graph: reverse slots" `Quick graph_reverse_slots;
    Alcotest.test_case "graph: of_pairs equals the reference" `Quick
      graph_of_pairs_matches_reference;
    Seeded.to_alcotest graph_of_pairs_matches_reference_random;
    Alcotest.test_case "graph: of_pairs rejects bad input" `Quick graph_of_pairs_rejects_bad_input;
    Alcotest.test_case "topology: build allocates its graph and the pairs array" `Quick
      topology_allocates_its_graph;
  ]
