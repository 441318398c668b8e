type violation = { time : Sim.Time.t; eater : Dining.Types.pid; neighbor : Dining.Types.pid }

type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  off : int array; (* CSR offsets, owned by the graph *)
  nbr : Dining.Types.pid array; (* CSR targets, owned by the graph *)
  eating : Bytes.t; (* pid -> 1 while it eats *)
  mutable violations : violation list; (* newest first *)
}

let[@lint.hot] on_phase t pid phase =
  match phase with
  | Dining.Types.Eating ->
      Bytes.set_uint8 t.eating pid 1;
      for s = t.off.(pid) to t.off.(pid + 1) - 1 do
        let j = t.nbr.(s) in
        if Bytes.get_uint8 t.eating j <> 0 && not (Net.Faults.is_crashed t.faults j) then
          (* The violation log is this monitor's output, kept by design:
             one record per violation. *)
          t.violations <-
            ({ time = Sim.Engine.now t.engine; eater = pid; neighbor = j } :: t.violations
            [@lint.allow "hot-path-alloc"])
      done
  | Dining.Types.Thinking | Dining.Types.Hungry -> Bytes.set_uint8 t.eating pid 0

let attach engine graph faults (instance : Dining.Instance.t) =
  let t =
    {
      engine;
      faults;
      off = Cgraph.Graph.csr_offsets graph;
      nbr = Cgraph.Graph.csr_targets graph;
      eating = Bytes.make (Cgraph.Graph.n graph) '\000';
      violations = [];
    }
  in
  instance.add_listener (on_phase t);
  t

let violations t = List.rev t.violations
let count t = List.length t.violations
let count_after t time = List.length (List.filter (fun v -> v.time >= time) t.violations)

let last_violation_time t =
  match t.violations with [] -> None | v :: _ -> Some v.time
