(* Suspicion state is per directed slot (observer's CSR row, slot for
   target), as in Oracle: [suspects] sits inside the algorithm's guard
   loops, so a query must not allocate a key. *)
(* Lag between a crash and its permanent suspicion. *)
let detection_delay = 50

let create engine faults graph rng ~period ~duration ~horizon () =
  if period <= 0 || duration <= 0 || duration >= period then
    invalid_arg "Unreliable.create: need 0 < duration < period";
  let listeners = Detector.listeners () in
  let dirs = Cgraph.Graph.dir_count graph in
  let fp_active = Bytes.make dirs '\000' in (* slot -> 1 inside a false-suspicion wave *)
  let permanent = Bytes.make dirs '\000' in (* slot -> 1 once the target's crash is detected *)
  let on b s = Bytes.get b s <> '\000' in
  let set observer target s v =
    if on fp_active s <> v then begin
      Bytes.set fp_active s (if v then '\001' else '\000');
      if not (on permanent s) then begin
        Obs.Recorder.suspect (Sim.Engine.recorder engine) ~time:(Sim.Engine.now engine) ~observer
          ~target ~on:v;
        Detector.notify listeners observer
      end
    end
  in
  (* Recurrent false suspicion of every directed neighbor pair, forever
     (up to the horizon), with a per-pair phase. A wave edge has owner =
     observer, a = the directed slot, b = 1 (on) or 0 (off). *)
  let wave =
    Sim.Engine.register engine (fun observer s on ->
        let target = Cgraph.Graph.slot_dst graph s in
        if on = 0 then set observer target s false
        else if not (Net.Faults.is_crashed faults observer) then set observer target s true)
  in
  Cgraph.Graph.iter_edges graph (fun a b ->
      List.iter
        (fun (observer, target) ->
          let s = Cgraph.Graph.dir_index graph observer target in
          let phase = Sim.Rng.int rng period in
          let rec waves start =
            if start <= horizon then begin
              Sim.Engine.post engine ~kind:wave ~owner:observer ~at:start s 1;
              Sim.Engine.post engine ~kind:wave ~owner:observer ~at:(Sim.Time.add start duration)
                s 0;
              waves (Sim.Time.add start period)
            end
          in
          waves phase)
        [ (a, b); (b, a) ]);
  (* Completeness, as in the scripted oracle: owner = the crashed
     process's neighbor, a = the neighbor's slot for the crashed
     process. *)
  let detection =
    Sim.Engine.register engine (fun neighbor s _ ->
        if (not (Net.Faults.is_crashed faults neighbor)) && not (on permanent s) then begin
          Bytes.set permanent s '\001';
          if not (on fp_active s) then begin
            Obs.Recorder.suspect (Sim.Engine.recorder engine) ~time:(Sim.Engine.now engine)
              ~observer:neighbor ~target:(Cgraph.Graph.slot_dst graph s) ~on:true;
            Detector.notify listeners neighbor
          end
        end)
  in
  let off = Cgraph.Graph.csr_offsets graph and nbr = Cgraph.Graph.csr_targets graph in
  let rev = Cgraph.Graph.rev_slots graph in
  Net.Faults.on_crash faults (fun crashed ->
      let at = Sim.Time.add (Sim.Engine.now engine) detection_delay in
      for s = off.(crashed) to off.(crashed + 1) - 1 do
        Sim.Engine.post engine ~kind:detection ~owner:nbr.(s) ~at rev.(s) 0
      done);
  {
    Detector.name = "unreliable-forever";
    suspects = (fun s -> on permanent s || on fp_active s);
    subscribe = Detector.subscribe listeners;
  }
