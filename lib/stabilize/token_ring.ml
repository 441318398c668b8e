let make ~n () =
  let k = n + 1 in
  if n < 3 then invalid_arg "Token_ring.make: n < 3";
  let pred pid = (pid + n - 1) mod n in
  let pred_state (v : Protocol.view) =
    let p = pred v.self in
    match Array.find_opt (fun (pid, _) -> pid = p) v.neighbors with
    | Some (_, s) -> s
    | None -> invalid_arg "Token_ring: predecessor not in view (non-ring graph?)"
  in
  let enabled v =
    if v.Protocol.self = 0 then v.state = pred_state v else v.state <> pred_state v
  in
  let enabled_flat states pid =
    if pid = 0 then states.(0) = states.(n - 1) else states.(pid) <> states.(pred pid)
  in
  {
    Protocol.name = "token-ring";
    init = (fun rng _pid -> Sim.Rng.int rng k);
    corrupt = (fun rng _pid -> Sim.Rng.int rng k);
    enabled;
    step = (fun v -> if v.self = 0 then (v.state + 1) mod k else pred_state v);
    error =
      (fun _g states _alive ->
        let tokens = ref 0 in
        for pid = 0 to n - 1 do
          if enabled_flat states pid then incr tokens
        done;
        abs (!tokens - 1));
  }
