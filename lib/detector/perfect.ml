let create _engine faults graph =
  let nbr = Cgraph.Graph.csr_targets graph in
  let listeners = Detector.listeners () in
  Net.Faults.on_crash faults (fun crashed ->
      Array.iter
        (fun neighbor ->
          if not (Net.Faults.is_crashed faults neighbor) then
            Detector.notify listeners neighbor)
        (Cgraph.Graph.neighbors graph crashed));
  {
    Detector.name = "perfect";
    suspects = (fun s -> Net.Faults.is_crashed faults nbr.(s));
    subscribe = Detector.subscribe listeners;
  }
