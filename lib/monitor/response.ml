type session = { pid : Dining.Types.pid; started : Sim.Time.t; served : Sim.Time.t }

type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  open_since : Sim.Time.t array; (* pid -> start of its open session, -1 = none *)
  mutable completed : session list; (* newest first *)
}

let[@lint.hot] on_phase t pid phase =
  match phase with
  | Dining.Types.Hungry -> t.open_since.(pid) <- Sim.Engine.now t.engine
  | Dining.Types.Eating ->
      let started = t.open_since.(pid) in
      if started >= 0 then begin
        t.open_since.(pid) <- -1;
        (* The session log is this monitor's output, kept by design: one
           record per completed session. *)
        t.completed <-
          ({ pid; started; served = Sim.Engine.now t.engine } :: t.completed
          [@lint.allow "hot-path-alloc"])
      end
  | Dining.Types.Thinking -> ()

let attach engine faults (instance : Dining.Instance.t) =
  let t = { engine; faults; open_since = Array.make (Net.Faults.n faults) (-1); completed = [] } in
  instance.add_listener (on_phase t);
  t

let completed t = List.rev t.completed
let durations t = List.rev_map (fun s -> s.served - s.started) t.completed
let summary t = Stats.Summary.of_ints (durations t)

(* Walking pids downwards while consing yields ascending pid order. *)
let open_sessions t =
  let acc = ref [] in
  for pid = Array.length t.open_since - 1 downto 0 do
    let started = t.open_since.(pid) in
    if started >= 0 && not (Net.Faults.is_crashed t.faults pid) then acc := (pid, started) :: !acc
  done;
  !acc

let starved t ~older_than =
  let now = Sim.Engine.now t.engine in
  List.filter_map
    (fun (pid, started) -> if now - started > older_than then Some pid else None)
    (open_sessions t)

let served_count t = List.length t.completed

let response_series t ~bucket =
  if bucket <= 0 then invalid_arg "Response.response_series: bucket must be positive";
  let sums = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let b = s.served / bucket in
      let total, count = Option.value (Hashtbl.find_opt sums b) ~default:(0, 0) in
      Hashtbl.replace sums b (total + (s.served - s.started), count + 1))
    t.completed;
  (* The sort is load-bearing: the fold enumerates buckets in hash order. *)
  Hashtbl.fold
    (fun b (total, count) acc ->
      (float_of_int (b * bucket), float_of_int total /. float_of_int count) :: acc)
    sums []
  |> List.sort compare
