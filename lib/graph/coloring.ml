(* Highest degree first, ties by lower id: a counting sort on degree.
   [mark] counts degrees, then places vertices, then holds per colour
   the stamp (order index + 1) of the last vertex with a neighbour of
   that colour. CSR rows are read in place: nothing else is allocated. *)
let greedy g =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and tgt = Graph.csr_targets g in
  let dmax = Graph.max_degree g in
  let mark = Array.make (dmax + 1) 0 in
  for v = 0 to n - 1 do
    let d = off.(v + 1) - off.(v) in
    mark.(d) <- mark.(d) + 1
  done;
  let start = ref 0 in
  for d = dmax downto 0 do
    let count = mark.(d) in
    mark.(d) <- !start;
    start := !start + count
  done;
  let order = Array.make n 0 in
  for v = 0 to n - 1 do
    let d = off.(v + 1) - off.(v) in
    order.(mark.(d)) <- v;
    mark.(d) <- mark.(d) + 1
  done;
  Array.fill mark 0 (dmax + 1) 0;
  let colors = Array.make n (-1) in
  for i = 0 to n - 1 do
    let v = order.(i) in
    for s = off.(v) to off.(v + 1) - 1 do
      let c = colors.(tgt.(s)) in
      if c >= 0 then mark.(c) <- i + 1
    done;
    let c = ref 0 in
    while mark.(!c) = i + 1 do
      incr c
    done;
    colors.(v) <- !c
  done;
  colors

let is_proper g colors =
  Array.length colors = Graph.n g
  && Array.for_all (fun c -> c >= 0) colors
  &&
  let ok = ref true in
  Graph.iter_edges g (fun a b -> if colors.(a) = colors.(b) then ok := false);
  !ok

let color_count colors =
  let seen = Hashtbl.create 16 in
  Array.iter (fun c -> Hashtbl.replace seen c ()) colors;
  Hashtbl.length seen
