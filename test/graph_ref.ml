(* Reference CSR builder: [Cgraph.Graph]'s constructor as it was written
   over a tuple array, [Array.sort] on packed keys and a copy of the row
   offsets as fill cursors. The in-place builder over a flat pairs array
   must produce the same arrays. *)

type t = {
  off : int array;
  nbr : int array;
  rev : int array;
  edges : (int * int) list;
}

let canonical_keys ~ctx ~n pairs =
  let m0 = Array.length pairs in
  let keys = Array.make (max 1 m0) 0 in
  for idx = 0 to m0 - 1 do
    let a, b = pairs.(idx) in
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg (Printf.sprintf "%s: endpoint out of range (%d, %d)" ctx a b);
    if a = b then invalid_arg (ctx ^ ": self-loop");
    keys.(idx) <- (if a < b then (a * n) + b else (b * n) + a)
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
  let fill = Array.sub off 0 (max 1 n) in
  for e = 0 to m - 1 do
    let u = eu.(e) and v = ev.(e) in
    let su = fill.(u) and sv = fill.(v) in
    nbr.(su) <- v;
    nbr.(sv) <- u;
    rev.(su) <- sv;
    rev.(sv) <- su;
    fill.(u) <- su + 1;
    fill.(v) <- sv + 1
  done;
  { off; nbr; rev; edges = List.init m (fun e -> (eu.(e), ev.(e))) }

let of_edges ~ctx ~n pairs =
  if n <= 0 then invalid_arg (ctx ^ ": n must be positive");
  let keys, m = canonical_keys ~ctx ~n pairs in
  of_keys ~n keys m

let topology_edges (spec : Cgraph.Topology.spec) =
  let acc = ref [] in
  let add u v = acc := (u, v) :: !acc in
  (match spec with
  | Ring n ->
      for i = 0 to n - 1 do
        add i ((i + 1) mod n)
      done
  | Path n ->
      for i = 0 to n - 2 do
        add i (i + 1)
      done
  | Clique n ->
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          add i j
        done
      done
  | Star n ->
      for i = 1 to n - 1 do
        add 0 i
      done
  | Grid (rows, cols) ->
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let id = (r * cols) + c in
          if c + 1 < cols then add id (id + 1);
          if r + 1 < rows then add id (id + cols)
        done
      done
  | Torus (rows, cols) ->
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let id r c = (r * cols) + c in
          add (id r c) (id r ((c + 1) mod cols));
          add (id r c) (id ((r + 1) mod rows) c)
        done
      done
  | Binary_tree n ->
      for i = 1 to n - 1 do
        add ((i - 1) / 2) i
      done
  | Hypercube d ->
      for i = 0 to (1 lsl d) - 1 do
        for b = 0 to d - 1 do
          let j = i lxor (1 lsl b) in
          if i < j then add i j
        done
      done
  | Wheel n ->
      let rim = n - 1 in
      for k = 0 to rim - 1 do
        add 0 (k + 1);
        add (k + 1) (((k + 1) mod rim) + 1)
      done
  | Bipartite (a, b) ->
      for i = 0 to a - 1 do
        for j = 0 to b - 1 do
          add i (a + j)
        done
      done
  | Random_gnp (n, p, seed) ->
      let rng = Sim.Rng.create seed in
      let order = Array.init n Fun.id in
      Sim.Rng.shuffle rng order;
      for i = 0 to n - 2 do
        add order.(i) order.(i + 1)
      done;
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Sim.Rng.float rng < p then add i j
        done
      done
  | Scale_free (n, m, seed) ->
      let rng = Sim.Rng.create seed in
      let stubs = Array.make (2 * (m + ((n - m - 1) * m))) 0 in
      let nstubs = ref 0 in
      let push u v =
        add u v;
        stubs.(!nstubs) <- u;
        stubs.(!nstubs + 1) <- v;
        nstubs := !nstubs + 2
      in
      for v = 1 to m do
        push 0 v
      done;
      for v = m + 1 to n - 1 do
        let targets = ref [] in
        while List.length !targets < m do
          let candidate = stubs.(Sim.Rng.int rng !nstubs) in
          if not (List.mem candidate !targets) then targets := candidate :: !targets
        done;
        List.iter (fun u -> push u v) (List.rev !targets)
      done);
  Array.of_list (List.rev !acc)
