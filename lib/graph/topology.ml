type spec =
  | Ring of int
  | Path of int
  | Clique of int
  | Star of int
  | Grid of int * int
  | Torus of int * int
  | Binary_tree of int
  | Hypercube of int
  | Wheel of int
  | Bipartite of int * int
  | Random_gnp of int * float * int64
  | Scale_free of int * int * int64

let check cond msg = if not cond then invalid_arg ("Topology.build: " ^ msg)

(* Every generator writes its endpoints, two ints per edge, into one
   array of exactly the edge count's size and hands it to
   [Graph.of_pairs], which reuses it as scratch. Generators that emit
   edges in ascending canonical order spare the builder its sort. *)
let pairs m = Array.make (2 * m) 0

let set p k u v =
  p.(2 * k) <- u;
  p.((2 * k) + 1) <- v

let ring n =
  check (n >= 3) "ring needs n >= 3";
  (* The closing edge (0, n-1) goes second, so the keys ascend. *)
  let p = pairs n in
  set p 0 0 1;
  set p 1 0 (n - 1);
  for i = 1 to n - 2 do
    set p (i + 1) i (i + 1)
  done;
  Graph.of_pairs ~n p

let path n =
  check (n >= 2) "path needs n >= 2";
  let p = pairs (n - 1) in
  for i = 0 to n - 2 do
    set p i i (i + 1)
  done;
  Graph.of_pairs ~n p

let clique n =
  check (n >= 2) "clique needs n >= 2";
  let p = pairs (n * (n - 1) / 2) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      set p !k i j;
      incr k
    done
  done;
  Graph.of_pairs ~n p

let star n =
  check (n >= 2) "star needs n >= 2";
  let p = pairs (n - 1) in
  for i = 0 to n - 2 do
    set p i 0 (i + 1)
  done;
  Graph.of_pairs ~n p

let grid rows cols =
  check (rows >= 1 && cols >= 1 && rows * cols >= 2) "grid needs >= 2 vertices";
  let id r c = (r * cols) + c in
  let p = pairs ((rows * (cols - 1)) + ((rows - 1) * cols)) in
  let k = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then begin
        set p !k (id r c) (id r (c + 1));
        incr k
      end;
      if r + 1 < rows then begin
        set p !k (id r c) (id (r + 1) c);
        incr k
      end
    done
  done;
  Graph.of_pairs ~n:(rows * cols) p

let torus rows cols =
  check (rows >= 3 && cols >= 3) "torus needs rows, cols >= 3";
  let id r c = (r * cols) + c in
  let p = pairs (2 * rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let k = 2 * id r c in
      set p k (id r c) (id r ((c + 1) mod cols));
      set p (k + 1) (id r c) (id ((r + 1) mod rows) c)
    done
  done;
  Graph.of_pairs ~n:(rows * cols) p

let binary_tree n =
  check (n >= 2) "binary tree needs n >= 2";
  let p = pairs (n - 1) in
  for i = 1 to n - 1 do
    set p (i - 1) ((i - 1) / 2) i
  done;
  Graph.of_pairs ~n p

let hypercube d =
  check (d >= 1 && d <= 16) "hypercube needs 1 <= d <= 16";
  let n = 1 lsl d in
  let p = pairs (d * (n / 2)) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for b = 0 to d - 1 do
      let j = i lxor (1 lsl b) in
      if i < j then begin
        set p !k i j;
        incr k
      end
    done
  done;
  Graph.of_pairs ~n p

let wheel n =
  check (n >= 4) "wheel needs n >= 4";
  (* Vertex 0 is the hub; 1 .. n-1 form the rim cycle. *)
  let rim = n - 1 in
  let p = pairs (2 * rim) in
  for k = 0 to rim - 1 do
    set p (2 * k) 0 (k + 1);
    set p ((2 * k) + 1) (k + 1) (((k + 1) mod rim) + 1)
  done;
  Graph.of_pairs ~n p

let bipartite a b =
  check (a >= 1 && b >= 1) "bipartite needs both sides non-empty";
  let p = pairs (a * b) in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      set p ((i * b) + j) i (a + j)
    done
  done;
  Graph.of_pairs ~n:(a + b) p

let random_gnp n p seed =
  check (n >= 2) "gnp needs n >= 2";
  check (p >= 0.0 && p <= 1.0) "gnp needs 0 <= p <= 1";
  let rng = Sim.Rng.create seed in
  (* Random spanning chain first so that the graph is connected, then each
     remaining pair (i, j), i < j, independently with probability p,
     drawn in (i, j) order. A hit is kept as one bit per pair until the
     edge count sizes the pairs array. *)
  let order = Array.init n Fun.id in
  Sim.Rng.shuffle rng order;
  let candidates = n * (n - 1) / 2 in
  let hits = Bytes.make ((candidates + 7) / 8) '\000' in
  let m = ref (n - 1) in
  (* [Rng.float rng < p] without boxing a float per draw: the float is
     [bits53 / 2^53], exactly, so it is below p iff bits53 < p * 2^53,
     iff bits53 < ceil (p * 2^53). *)
  let threshold = int_of_float (Float.ceil (Float.ldexp p 53)) in
  for bit = 0 to candidates - 1 do
    if Sim.Rng.bits53 rng < threshold then begin
      Bytes.set_uint8 hits (bit lsr 3) (Bytes.get_uint8 hits (bit lsr 3) lor (1 lsl (bit land 7)));
      incr m
    end
  done;
  let pr = pairs !m in
  for i = 0 to n - 2 do
    set pr i order.(i) order.(i + 1)
  done;
  let k = ref (n - 1) and bit = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Bytes.get_uint8 hits (!bit lsr 3) land (1 lsl (!bit land 7)) <> 0 then begin
        set pr !k i j;
        incr k
      end;
      incr bit
    done
  done;
  Graph.of_pairs ~n pr

let scale_free n m seed =
  check (m >= 1) "scale_free needs m >= 1";
  check (n >= m + 1) "scale_free needs n >= m + 1";
  let rng = Sim.Rng.create seed in
  (* Barabási–Albert preferential attachment, repeated-endpoints method:
     [stubs] holds every edge endpoint seen so far, so sampling it
     uniformly is sampling vertices proportional to degree. Seed with a
     star on the first m + 1 vertices, then attach each new vertex to m
     distinct degree-biased targets. Each edge's endpoints sit side by
     side in [stubs], so it is also the graph's pairs array. *)
  let edge_total = m + ((n - m - 1) * m) in
  let stubs = pairs edge_total in
  let nstubs = ref 0 in
  let push_edge u v =
    stubs.(!nstubs) <- u;
    stubs.(!nstubs + 1) <- v;
    nstubs := !nstubs + 2
  in
  for v = 1 to m do
    push_edge 0 v
  done;
  let targets = Array.make m 0 in
  for v = m + 1 to n - 1 do
    let chosen = ref 0 in
    while !chosen < m do
      let candidate = stubs.(Sim.Rng.int rng !nstubs) in
      let fresh = ref true in
      for k = 0 to !chosen - 1 do
        if targets.(k) = candidate then fresh := false
      done;
      if !fresh then begin
        targets.(!chosen) <- candidate;
        incr chosen
      end
    done;
    for k = 0 to m - 1 do
      push_edge targets.(k) v
    done
  done;
  Graph.of_pairs ~n stubs

let build = function
  | Ring n -> ring n
  | Path n -> path n
  | Clique n -> clique n
  | Star n -> star n
  | Grid (r, c) -> grid r c
  | Torus (r, c) -> torus r c
  | Binary_tree n -> binary_tree n
  | Hypercube d -> hypercube d
  | Wheel n -> wheel n
  | Bipartite (a, b) -> bipartite a b
  | Random_gnp (n, p, seed) -> random_gnp n p seed
  | Scale_free (n, m, seed) -> scale_free n m seed

let name = function
  | Ring n -> Printf.sprintf "ring-%d" n
  | Path n -> Printf.sprintf "path-%d" n
  | Clique n -> Printf.sprintf "clique-%d" n
  | Star n -> Printf.sprintf "star-%d" n
  | Grid (r, c) -> Printf.sprintf "grid-%dx%d" r c
  | Torus (r, c) -> Printf.sprintf "torus-%dx%d" r c
  | Binary_tree n -> Printf.sprintf "tree-%d" n
  | Hypercube d -> Printf.sprintf "cube-%d" d
  | Wheel n -> Printf.sprintf "wheel-%d" n
  | Bipartite (a, b) -> Printf.sprintf "bipartite-%dx%d" a b
  | Random_gnp (n, p, seed) -> Printf.sprintf "gnp-%d-%.2f-%Ld" n p seed
  | Scale_free (n, m, seed) -> Printf.sprintf "sf-%d-%d-%Ld" n m seed

let parse s =
  let parts = String.split_on_char ':' s in
  let int x = int_of_string_opt x in
  let dims x =
    match String.split_on_char 'x' x with
    | [ a; b ] -> ( match (int a, int b) with Some a, Some b -> Some (a, b) | _ -> None)
    | _ -> None
  in
  let err () = Error (Printf.sprintf "cannot parse topology %S" s) in
  match parts with
  | [ "ring"; x ] -> ( match int x with Some n -> Ok (Ring n) | None -> err ())
  | [ "path"; x ] -> ( match int x with Some n -> Ok (Path n) | None -> err ())
  | [ "clique"; x ] -> ( match int x with Some n -> Ok (Clique n) | None -> err ())
  | [ "star"; x ] -> ( match int x with Some n -> Ok (Star n) | None -> err ())
  | [ "grid"; x ] -> ( match dims x with Some (r, c) -> Ok (Grid (r, c)) | None -> err ())
  | [ "torus"; x ] -> ( match dims x with Some (r, c) -> Ok (Torus (r, c)) | None -> err ())
  | [ "tree"; x ] -> ( match int x with Some n -> Ok (Binary_tree n) | None -> err ())
  | [ "cube"; x ] -> ( match int x with Some d -> Ok (Hypercube d) | None -> err ())
  | [ "wheel"; x ] -> ( match int x with Some n -> Ok (Wheel n) | None -> err ())
  | [ "bipartite"; x ] -> (
      match dims x with Some (a, b) -> Ok (Bipartite (a, b)) | None -> err ())
  | [ "sf"; x; mstr ] | [ "sf"; x; mstr; _ ] -> (
      let seed =
        match parts with
        | [ _; _; _; seedstr ] -> Int64.of_string_opt seedstr
        | _ -> Some 1L
      in
      match (int x, int mstr, seed) with
      | Some n, Some m, Some seed -> Ok (Scale_free (n, m, seed))
      | _ -> err ())
  | [ "gnp"; x; pstr ] | [ "gnp"; x; pstr; _ ] -> (
      let seed =
        match parts with
        | [ _; _; _; seedstr ] -> Int64.of_string_opt seedstr
        | _ -> Some 1L
      in
      match (int x, float_of_string_opt pstr, seed) with
      | Some n, Some p, Some seed -> Ok (Random_gnp (n, p, seed))
      | _ -> err ())
  | _ -> err ()

let all_small =
  [
    Ring 5;
    Ring 12;
    Path 8;
    Clique 6;
    Star 9;
    Grid (3, 4);
    Torus (3, 3);
    Binary_tree 10;
    Hypercube 3;
    Wheel 7;
    Bipartite (3, 4);
    Random_gnp (14, 0.25, 7L);
  ]
