(* Reference colouring: [Cgraph.Coloring.greedy] as it was written over
   [Graph.neighbors] copies and a comparison sort. The library's
   counting-sort version over CSR rows must return the same colours. *)

let greedy g =
  let n = Cgraph.Graph.n g in
  let order = Array.init n Fun.id in
  (* Highest degree first; ties by lower id for determinism. *)
  Array.sort
    (fun a b ->
      match compare (Cgraph.Graph.degree g b) (Cgraph.Graph.degree g a) with
      | 0 -> compare a b
      | c -> c)
    order;
  let colors = Array.make n (-1) in
  let used = Array.make (Cgraph.Graph.max_degree g + 1) false in
  Array.iter
    (fun v ->
      Array.fill used 0 (Array.length used) false;
      Array.iter
        (fun u -> if colors.(u) >= 0 then used.(colors.(u)) <- true)
        (Cgraph.Graph.neighbors g v);
      let c = ref 0 in
      while used.(!c) do
        incr c
      done;
      colors.(v) <- !c)
    order;
  colors
