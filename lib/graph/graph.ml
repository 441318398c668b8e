type pid = int

(* Compressed sparse row storage. [off]/[nbr] give each vertex its
   neighbors as a contiguous ascending run; position [s] in [nbr] is the
   "directed slot" for the pair (owner of the run, nbr.(s)), giving
   every per-directed-pair quantity in the system (FIFO floors, link
   counters, protocol bits) a dense int index. [eu]/[ev] list each
   undirected edge once, canonically (eu < ev), sorted — the same order
   the legacy [edges] list had. [rev] pairs each slot with its
   reverse, so a message's receiver finds its own end of the edge
   without a search. *)
type t = {
  n : int;
  off : int array; (* n+1 row offsets into nbr *)
  nbr : pid array; (* 2m neighbors, ascending within each row *)
  rev : int array; (* 2m: slot (i, j) -> slot (j, i) *)
  slot_edge : int array; (* 2m: directed slot -> undirected edge id *)
  eu : pid array; (* m canonical endpoints, eu.(e) < ev.(e), sorted *)
  ev : pid array;
}

(* Canonicalize, validate and dedup an edge set into sorted packed keys
   u * n + v (u < v). Shared by the list and array constructors. *)
let canonical_keys ~ctx ~n pairs =
  let m0 = Array.length pairs in
  let keys = Array.make (max 1 m0) 0 in
  for idx = 0 to m0 - 1 do
    let a, b = pairs.(idx) in
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg (Printf.sprintf "%s: endpoint out of range (%d, %d)" ctx a b);
    if a = b then invalid_arg (ctx ^ ": self-loop");
    keys.(idx) <- if a < b then (a * n) + b else (b * n) + a
  done;
  let keys = if m0 = Array.length keys then keys else Array.sub keys 0 m0 in
  Array.sort (fun (a : int) b -> compare a b) keys;
  let m = ref 0 in
  for idx = 0 to m0 - 1 do
    if idx = 0 || keys.(idx) <> keys.(idx - 1) then begin
      keys.(!m) <- keys.(idx);
      incr m
    end
  done;
  (keys, !m)

let of_keys ~n keys m =
  let eu = Array.make m 0 and ev = Array.make m 0 in
  for e = 0 to m - 1 do
    eu.(e) <- keys.(e) / n;
    ev.(e) <- keys.(e) mod n
  done;
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    off.(eu.(e)) <- off.(eu.(e)) + 1;
    off.(ev.(e)) <- off.(ev.(e)) + 1
  done;
  let total = ref 0 in
  for i = 0 to n - 1 do
    let d = off.(i) in
    off.(i) <- !total;
    total := !total + d
  done;
  off.(n) <- !total;
  let nbr = Array.make (2 * m) 0 in
  let rev = Array.make (2 * m) 0 in
  let slot_edge = Array.make (2 * m) 0 in
  let fill = Array.sub off 0 (max 1 n) in
  (* Filling in sorted edge order leaves every row ascending: vertex i
     first receives all smaller neighbors u (as edges (u, i) with u < i,
     ascending in u), then all larger ones (as edges (i, v), ascending
     in v). *)
  for e = 0 to m - 1 do
    let u = eu.(e) and v = ev.(e) in
    let su = fill.(u) and sv = fill.(v) in
    nbr.(su) <- v;
    nbr.(sv) <- u;
    rev.(su) <- sv;
    rev.(sv) <- su;
    slot_edge.(su) <- e;
    slot_edge.(sv) <- e;
    fill.(u) <- su + 1;
    fill.(v) <- sv + 1
  done;
  { n; off; nbr; rev; slot_edge; eu; ev }

let of_edge_array ~n pairs =
  if n <= 0 then invalid_arg "Graph.of_edge_array: n must be positive";
  let keys, m = canonical_keys ~ctx:"Graph.of_edge_array" ~n pairs in
  of_keys ~n keys m

let of_edges ~n edge_list =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let keys, m = canonical_keys ~ctx:"Graph.of_edges" ~n (Array.of_list edge_list) in
  of_keys ~n keys m

let n t = t.n
let edge_count t = Array.length t.eu

let edges t =
  let acc = ref [] in
  for e = Array.length t.eu - 1 downto 0 do
    acc := (t.eu.(e), t.ev.(e)) :: !acc
  done;
  !acc

let degree t i = t.off.(i + 1) - t.off.(i)
let neighbors t i = Array.sub t.nbr t.off.(i) (degree t i)

let max_degree t =
  let best = ref 0 in
  for i = 0 to t.n - 1 do
    if degree t i > !best then best := degree t i
  done;
  !best

(* Slot of [j] within [i]'s row, or -1. Rows are ascending. The search
   is a tail recursion over plain ints: dir_index_opt sits on the
   per-delivery path of Net.route, so it must not allocate. *)
let[@lint.hot] rec bsearch t j lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let v = t.nbr.(mid) in
    if v = j then mid else if v < j then bsearch t j (mid + 1) hi else bsearch t j lo mid

let[@lint.hot] find_dir t i j = bsearch t j t.off.(i) t.off.(i + 1)

let is_edge t i j =
  if i = j then false
  else begin
    (* Search the sorted neighbor row of the lower-degree endpoint. *)
    let a, b = if degree t i <= degree t j then (i, j) else (j, i) in
    find_dir t a b >= 0
  end

let dir_count t = Array.length t.nbr

let dir_index t i j =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Graph.dir_index: bad vertex %d" i);
  let s = find_dir t i j in
  if s < 0 then invalid_arg (Printf.sprintf "Graph.dir_index: %d and %d are not neighbors" i j);
  s

let[@lint.hot] dir_index_opt t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then -1 else find_dir t i j

let slot_dst t s = t.nbr.(s)
let slot_src t s = t.nbr.(t.rev.(s))
let rev_slots t = t.rev
let slot_edge_id t s = t.slot_edge.(s)
let edge_endpoints t e = (t.eu.(e), t.ev.(e))
let csr_offsets t = t.off
let csr_targets t = t.nbr

let iter_edges t f =
  for e = 0 to Array.length t.eu - 1 do
    f t.eu.(e) t.ev.(e)
  done

let fold_vertices t ~init ~f =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    acc := f !acc i
  done;
  !acc

let is_connected t =
  let visited = Array.make t.n false in
  (* Explicit stack: recursion would overflow on path-like graphs at
     scale. *)
  let stack = Array.make t.n 0 in
  let top = ref 0 in
  let push i =
    if not visited.(i) then begin
      visited.(i) <- true;
      stack.(!top) <- i;
      incr top
    end
  in
  push 0;
  while !top > 0 do
    decr top;
    let u = stack.(!top) in
    for s = t.off.(u) to t.off.(u + 1) - 1 do
      push t.nbr.(s)
    done
  done;
  Array.for_all Fun.id visited

let distances_from t source =
  if source < 0 || source >= t.n then invalid_arg "Graph.distances_from: bad vertex";
  let dist = Array.make t.n t.n in
  let queue = Array.make t.n 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(source) <- 0;
  queue.(!tail) <- source;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for s = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.nbr.(s) in
      if dist.(v) > dist.(u) + 1 then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let pp ppf t = Format.fprintf ppf "graph(n=%d, m=%d)" t.n (edge_count t)

let to_dot ?(name = "conflict") ?(vertex_label = string_of_int) ?(vertex_color = fun _ -> None)
    t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n  node [shape=circle];\n" name);
  for i = 0 to t.n - 1 do
    let attrs =
      match vertex_color i with
      | Some color ->
          Printf.sprintf "label=\"%s\", style=filled, fillcolor=\"%s\"" (vertex_label i) color
      | None -> Printf.sprintf "label=\"%s\"" (vertex_label i)
    in
    Buffer.add_string buf (Printf.sprintf "  %d [%s];\n" i attrs)
  done;
  iter_edges t (fun a b -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" a b));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
