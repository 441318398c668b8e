type fp = { observer : int; target : int; from_t : Sim.Time.t; till_t : Sim.Time.t }

(* Suspicion state is per directed slot (observer's CSR row, slot for
   target), as in Heartbeat: [suspects] sits inside the algorithm's
   guard loops, once per neighbor, so a query must not allocate a key. *)
type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  detection_delay : int;
  false_positives : fp list;
  fp_active : int array; (* slot -> open window count *)
  permanent : Bytes.t; (* slot -> 1 once a completeness suspicion is set; never cleared *)
  listeners : Detector.listeners;
}

let suspected t s = Bytes.unsafe_get t.permanent s <> '\000' || t.fp_active.(s) > 0

let validate_fp graph fp =
  if fp.from_t >= fp.till_t then invalid_arg "Oracle: empty false-positive window";
  if not (Cgraph.Graph.is_edge graph fp.observer fp.target) then
    invalid_arg "Oracle: false positive between non-neighbors"

let create engine faults graph ?(detection_delay = 50) ?(false_positives = []) () =
  List.iter (validate_fp graph) false_positives;
  let dirs = Cgraph.Graph.dir_count graph in
  let t =
    {
      engine;
      faults;
      detection_delay;
      false_positives;
      fp_active = Array.make dirs 0;
      permanent = Bytes.make dirs '\000';
      listeners = Detector.listeners ();
    }
  in
  (* A window opening or closing: owner = observer, a = the directed
     slot, b = +1 / -1. *)
  let bump observer s delta =
    let before = suspected t s in
    t.fp_active.(s) <- t.fp_active.(s) + delta;
    let after = suspected t s in
    if before <> after then begin
      Obs.Recorder.suspect (Sim.Engine.recorder engine) ~time:(Sim.Engine.now engine) ~observer
        ~target:(Cgraph.Graph.slot_dst graph s) ~on:after;
      Detector.notify t.listeners observer
    end
  in
  let window = Sim.Engine.register engine bump in
  List.iter
    (fun fp ->
      let s = Cgraph.Graph.dir_index graph fp.observer fp.target in
      Sim.Engine.post engine ~kind:window ~owner:fp.observer ~at:fp.from_t s 1;
      Sim.Engine.post engine ~kind:window ~owner:fp.observer ~at:fp.till_t s (-1))
    false_positives;
  (* Completeness: owner = the crashed process's neighbor, a = the
     neighbor's slot for the crashed process. *)
  let detect neighbor s _ =
    if (not (Net.Faults.is_crashed faults neighbor)) && Bytes.get t.permanent s = '\000' then begin
      let before = suspected t s in
      Bytes.set t.permanent s '\001';
      if not before then begin
        Obs.Recorder.suspect (Sim.Engine.recorder engine) ~time:(Sim.Engine.now engine)
          ~observer:neighbor ~target:(Cgraph.Graph.slot_dst graph s) ~on:true;
        Detector.notify t.listeners neighbor
      end
    end
  in
  let detection = Sim.Engine.register engine detect in
  let off = Cgraph.Graph.csr_offsets graph and nbr = Cgraph.Graph.csr_targets graph in
  let rev = Cgraph.Graph.rev_slots graph in
  Net.Faults.on_crash faults (fun crashed ->
      let at = Sim.Time.add (Sim.Engine.now engine) detection_delay in
      for s = off.(crashed) to off.(crashed + 1) - 1 do
        Sim.Engine.post engine ~kind:detection ~owner:nbr.(s) ~at rev.(s) 0
      done);
  let detector =
    {
      Detector.name = "oracle-evp";
      suspects = suspected t;
      subscribe = Detector.subscribe t.listeners;
    }
  in
  (t, detector)

let convergence_time t =
  let fp_end =
    List.fold_left (fun acc fp -> Sim.Time.max acc fp.till_t) Sim.Time.zero t.false_positives
  in
  let detect_end = ref Sim.Time.zero in
  for pid = 0 to Net.Faults.n t.faults - 1 do
    let ct = Net.Faults.crash_time t.faults pid in
    if Sim.Time.is_finite ct then
      detect_end := Sim.Time.max !detect_end (Sim.Time.add ct t.detection_delay)
  done;
  Sim.Time.max fp_end !detect_end

(* Each edge draws (a, b)'s windows, then (b, a)'s. One closure for the
   whole graph, not a pair list and a closure per edge: the script is
   built inside [World.create], whose garbage the scale bench gates. *)
let random_false_positives rng graph ~before ~per_edge ~max_len =
  if before <= 0 then []
  else begin
    let acc = ref [] in
    let draw observer target =
      for _ = 1 to per_edge do
        let from_t = Sim.Rng.int rng before in
        let len = Sim.Rng.int_in rng 1 max_len in
        let till_t = min before (from_t + len) in
        if till_t > from_t then acc := { observer; target; from_t; till_t } :: !acc
      done
    in
    Cgraph.Graph.iter_edges graph (fun a b ->
        draw a b;
        draw b a);
    !acc
  end
