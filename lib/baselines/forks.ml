open Dining.Types

type rule = Fork_only | Chandy_misra | Ordered
type msg = Req | Fk

(* Per-edge state is indexed by the graph's directed slot: slot s in the
   CSR row of i stands for i's end of the edge {i, nbr.(s)}. *)
type t = {
  rule : rule;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  detector : Fd.Detector.t;
  off : int array; (* CSR offsets, owned by the graph *)
  nbr : pid array; (* CSR targets, owned by the graph *)
  rev : int array; (* slot (i,j) -> slot (j,i), owned by the graph *)
  prio : int array; (* pid -> static priority; the higher end holds the fork initially *)
  phase : phase array;
  progress : int array; (* pid -> Ordered's locked prefix of the CSR row *)
  fork : bool array;
  token : bool array; (* request token *)
  clean : bool array; (* meaningful only while the fork is held or in transit *)
  mutable net : msg Net.Network.t option; (* set once in create *)
  mutable listeners : (pid -> phase -> unit) list;
}

let net t = match t.net with Some n -> n | None -> assert false

let prefix t =
  match t.rule with Fork_only -> "fork_only" | Chandy_misra -> "chandy_misra" | Ordered -> "ordered"

let slot t i j =
  let s = Cgraph.Graph.dir_index_opt t.graph i j in
  if s < 0 then invalid_arg (prefix t ^ ": not a neighbor");
  s

let notify t i = List.iter (fun f -> f i t.phase.(i)) t.listeners
let suspects t s = t.detector.Fd.Detector.suspects s

let request t i s =
  if t.token.(s) && not t.fork.(s) then begin
    t.token.(s) <- false;
    Net.Network.send_slot (net t) ~src:i s Req
  end

(* The fork is cleaned as it is sent. *)
let grant t i s =
  t.fork.(s) <- false;
  t.clean.(s) <- true;
  Net.Network.send_slot (net t) ~src:i s Fk

(* Eating soils every held fork. *)
let eat t i =
  t.phase.(i) <- Eating;
  for s = t.off.(i) to t.off.(i + 1) - 1 do
    if t.fork.(s) then t.clean.(s) <- false
  done;
  notify t i

(* Every slot from [s] to [hi] holds its fork or is suspected. Stops at
   the first blocker; [suspects] is a pure read. *)
let[@lint.hot] rec all_held t s hi =
  s >= hi || ((t.fork.(s) || suspects t s) && all_held t (s + 1) hi)

let try_actions t i =
  if (not (Net.Faults.is_crashed t.faults i)) && t.phase.(i) = Hungry then begin
    let lo = t.off.(i) and hi = t.off.(i + 1) in
    match t.rule with
    | Fork_only | Chandy_misra ->
        for s = lo to hi - 1 do
          request t i s
        done;
        if all_held t lo hi then eat t i
    | Ordered ->
        (* Advance the locked prefix past held (or suspected) forks;
           request the first missing one; eat when the prefix covers the
           whole row. A CSR row ascends by neighbour id, which is already
           ascending edge rank (min, max), so the row needs no sort. *)
        let s = ref (lo + t.progress.(i)) in
        while !s < hi && (t.fork.(!s) || suspects t !s) do
          incr s
        done;
        t.progress.(i) <- !s - lo;
        if !s < hi then request t i !s else eat t i
  end

(* [s] is the receiver i's slot for the sender j = nbr.(s). *)
let receive_request t i s =
  let j = t.nbr.(s) in
  if not t.fork.(s) then
    raise (Invariant_violation (Printf.sprintf "%s: %d requested a fork %d lacks" (prefix t) j i));
  t.token.(s) <- true;
  let defer =
    match t.phase.(i) with
    | Eating -> true
    | Thinking -> false
    | Hungry -> (
        match t.rule with
        | Fork_only -> t.prio.(i) > t.prio.(j)
        | Chandy_misra -> t.clean.(s)
        | Ordered -> s - t.off.(i) < t.progress.(i))
  in
  if not defer then grant t i s;
  try_actions t i

let receive_fork t i s =
  if t.fork.(s) then
    raise
      (Invariant_violation (Printf.sprintf "%s: duplicated fork (%d,%d)" (prefix t) i t.nbr.(s)));
  t.fork.(s) <- true;
  t.clean.(s) <- true;
  try_actions t i

let become_hungry t i =
  if (not (Net.Faults.is_crashed t.faults i)) && t.phase.(i) = Thinking then begin
    t.phase.(i) <- Hungry;
    t.progress.(i) <- 0;
    notify t i;
    try_actions t i
  end

let stop_eating t i =
  if (not (Net.Faults.is_crashed t.faults i)) && t.phase.(i) = Eating then begin
    t.phase.(i) <- Thinking;
    t.progress.(i) <- 0;
    (* Grant deferred requests. *)
    for s = t.off.(i) to t.off.(i + 1) - 1 do
      if t.token.(s) && t.fork.(s) then grant t i s
    done;
    notify t i
  end

let create ~rule ~engine ~faults ~graph ~delay ~rng ~detector ?metrics () =
  let n = Cgraph.Graph.n graph in
  let off = Cgraph.Graph.csr_offsets graph and nbr = Cgraph.Graph.csr_targets graph in
  (* Fork_only ranks by color, as Algorithm 1 does. The others place
     forks at the lower id, which keeps Chandy-Misra's initial precedence
     graph acyclic; Ordered's locks, not placement, give deadlock
     freedom. *)
  let prio =
    match rule with
    | Fork_only -> Cgraph.Coloring.greedy graph
    | Chandy_misra | Ordered -> Array.init n (fun i -> -i)
  in
  let dirs = Cgraph.Graph.dir_count graph in
  let fork = Array.make dirs false and token = Array.make dirs false in
  for i = 0 to n - 1 do
    for s = off.(i) to off.(i + 1) - 1 do
      fork.(s) <- prio.(i) > prio.(nbr.(s));
      token.(s) <- prio.(i) < prio.(nbr.(s))
    done
  done;
  let t =
    {
      rule;
      faults;
      graph;
      detector;
      off;
      nbr;
      rev = Cgraph.Graph.rev_slots graph;
      prio;
      phase = Array.make n Thinking;
      progress = Array.make n 0;
      fork;
      token;
      clean = Array.make dirs false;
      net = None;
      listeners = [];
    }
  in
  let network =
    Net.Network.create_slotted ~engine ~graph ~delay ~faults ~rng
      ~kind:(function Req -> "request" | Fk -> "fork")
      ?metrics
      ~codec:((function Req -> 0 | Fk -> 1), function 0 -> Req | _ -> Fk)
      ~handler:(fun ~dst ~slot msg ->
        match msg with
        | Req -> receive_request t dst t.rev.(slot)
        | Fk -> receive_fork t dst t.rev.(slot))
      ()
  in
  t.net <- Some network;
  detector.Fd.Detector.subscribe (fun observer ->
      if observer >= 0 && observer < n then try_actions t observer);
  t

let network_stats t = Net.Network.stats (net t)
let holds_fork t i j = t.fork.(slot t i j)
let fork_clean t i j = t.clean.(slot t i j)
let progress t i = t.progress.(i)

(* Each edge once, from its lower endpoint, in ascending (i, j) order. *)
let check_invariants t =
  for i = 0 to Cgraph.Graph.n t.graph - 1 do
    for s = t.off.(i) to t.off.(i + 1) - 1 do
      let j = t.nbr.(s) in
      if j > i && t.fork.(s) && t.fork.(t.rev.(s)) then
        raise
          (Invariant_violation (Printf.sprintf "%s: two forks on edge (%d,%d)" (prefix t) i j))
    done
  done

let instance t =
  let name =
    match t.rule with
    | Fork_only -> "fork-only-"
    | Chandy_misra -> "chandy-misra-"
    | Ordered -> "ordered-"
  in
  {
    Dining.Instance.name = name ^ t.detector.Fd.Detector.name;
    become_hungry = become_hungry t;
    stop_eating = stop_eating t;
    phase = (fun i -> t.phase.(i));
    add_listener = (fun f -> t.listeners <- t.listeners @ [ f ]);
    add_doorway_listener = (fun _ -> ());
    check_invariants = (fun () -> check_invariants t);
  }
