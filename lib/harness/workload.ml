type t = { mutable hungry_transitions : int }

let sample rng (lo, hi) =
  if lo > hi then invalid_arg "Workload: empty range";
  if lo = hi then lo else Sim.Rng.int_in rng lo hi

let attach ~engine ~faults ~n ~rng ~workload (instance : Dining.Instance.t) =
  let t = { hungry_transitions = 0 } in
  let think_delay () = sample rng workload.Scenario.think in
  let eat_delay () = max 1 (sample rng workload.Scenario.eat) in
  let stop_eating = Sim.Engine.register engine (fun pid _ _ -> instance.stop_eating pid) in
  let become_hungry =
    Sim.Engine.register engine (fun pid _ _ ->
        if not (Net.Faults.is_crashed faults pid) then instance.become_hungry pid)
  in
  instance.add_listener (fun pid phase ->
      match phase with
      | Dining.Types.Hungry -> t.hungry_transitions <- t.hungry_transitions + 1
      | Dining.Types.Eating ->
          let at = Sim.Time.add (Sim.Engine.now engine) (eat_delay ()) in
          Sim.Engine.post engine ~kind:stop_eating ~owner:pid ~at 0 0
      | Dining.Types.Thinking ->
          let at = Sim.Time.add (Sim.Engine.now engine) (think_delay ()) in
          Sim.Engine.post engine ~kind:become_hungry ~owner:pid ~at 0 0);
  for pid = 0 to n - 1 do
    Sim.Engine.post engine ~kind:become_hungry ~owner:pid ~at:(think_delay ()) 0 0
  done;
  t

let hungry_transitions t = t.hungry_transitions
