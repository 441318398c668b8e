type pid = int

(* Compressed sparse row storage. [off]/[nbr] give each vertex its
   neighbors as a contiguous ascending run; position [s] in [nbr] is the
   "directed slot" for the pair (owner of the run, nbr.(s)), giving
   every per-directed-pair quantity in the system (FIFO floors, link
   counters, protocol bits) a dense int index. [rev] pairs each slot
   with its reverse, so a message's receiver finds its own end of the
   edge without a search, and an edge's per-edge quantities can live at
   one of its two slots. *)
type t = {
  n : int;
  off : int array; (* n+1 row offsets into nbr *)
  nbr : pid array; (* 2m neighbors, ascending within each row *)
  rev : int array; (* 2m: slot (i, j) -> slot (j, i) *)
}

(* In-place heapsort of a.(0 .. len-1), ascending: int compares, no
   closure and no exception, so it allocates nothing. *)
let rec sift_down (a : int array) root len =
  let child = (2 * root) + 1 in
  if child < len then begin
    let child = if child + 1 < len && a.(child + 1) > a.(child) then child + 1 else child in
    let x = a.(root) and c = a.(child) in
    if c > x then begin
      a.(root) <- c;
      a.(child) <- x;
      sift_down a child len
    end
  end

let heapsort (a : int array) len =
  for root = (len / 2) - 1 downto 0 do
    sift_down a root len
  done;
  for last = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

let rec ascending_from (a : int array) i len =
  i >= len || (a.(i - 1) <= a.(i) && ascending_from a (i + 1) len)

(* [pairs] holds endpoints u0 v0 u1 v1 ...; its first m words are
   overwritten with the packed keys u * n + v (u < v) of the distinct
   edges, sorted, and [m] is returned. Reading pair [i] at 2i and 2i+1
   before writing key [i] at i <= 2i keeps every unread pair intact. *)
let canonical_keys ~ctx ~n pairs =
  let m0 = Array.length pairs / 2 in
  for i = 0 to m0 - 1 do
    let a = pairs.(2 * i) and b = pairs.((2 * i) + 1) in
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg (Printf.sprintf "%s: endpoint out of range (%d, %d)" ctx a b);
    if a = b then invalid_arg (ctx ^ ": self-loop");
    pairs.(i) <- (if a < b then (a * n) + b else (b * n) + a)
  done;
  if not (ascending_from pairs 1 m0) then heapsort pairs m0;
  let m = ref 0 in
  for i = 0 to m0 - 1 do
    if i = 0 || pairs.(i) <> pairs.(!m - 1) then begin
      pairs.(!m) <- pairs.(i);
      incr m
    end
  done;
  !m

let build ~ctx ~n pairs =
  if n <= 0 then invalid_arg (ctx ^ ": n must be positive");
  if Array.length pairs land 1 = 1 then invalid_arg (ctx ^ ": odd number of endpoints");
  let m = canonical_keys ~ctx ~n pairs in
  (* Degrees, then their running sums: off.(i) is the end of row i. *)
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let k = pairs.(e) in
    off.(k / n) <- off.(k / n) + 1;
    off.(k mod n) <- off.(k mod n) + 1
  done;
  for i = 1 to n - 1 do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  off.(n) <- 2 * m;
  let nbr = Array.make (2 * m) 0 in
  let rev = Array.make (2 * m) 0 in
  (* Filling from the row ends, in descending edge order, leaves every
     row ascending and every off.(i) at the start of its row: vertex i
     first receives its larger neighbors v (as edges (i, v), descending
     in v), then its smaller ones u (as edges (u, i), descending in u),
     each one slot further left. *)
  for e = m - 1 downto 0 do
    let k = pairs.(e) in
    let u = k / n and v = k mod n in
    let su = off.(u) - 1 and sv = off.(v) - 1 in
    nbr.(su) <- v;
    nbr.(sv) <- u;
    rev.(su) <- sv;
    rev.(sv) <- su;
    off.(u) <- su;
    off.(v) <- sv
  done;
  { n; off; nbr; rev }

let of_pairs ~n pairs = build ~ctx:"Graph.of_pairs" ~n pairs

let of_edges ~n edge_list =
  let pairs = Array.make (2 * List.length edge_list) 0 in
  List.iteri
    (fun i (a, b) ->
      pairs.(2 * i) <- a;
      pairs.((2 * i) + 1) <- b)
    edge_list;
  build ~ctx:"Graph.of_edges" ~n pairs

let n t = t.n
let edge_count t = Array.length t.nbr / 2

(* Each edge (u, v), u < v, once: as the slot (u, v) of u's row. *)
let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for s = t.off.(u + 1) - 1 downto t.off.(u) do
      if t.nbr.(s) > u then acc := (u, t.nbr.(s)) :: !acc
    done
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
let csr_offsets t = t.off
let csr_targets t = t.nbr

let iter_edges t f =
  for u = 0 to t.n - 1 do
    for s = t.off.(u) to t.off.(u + 1) - 1 do
      if t.nbr.(s) > u then f u t.nbr.(s)
    done
  done

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
