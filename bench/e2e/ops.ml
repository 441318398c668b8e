(* The four workloads and one repetition of each, untraced or traced.

   A repetition runs in its own process (see e2e.ml) and drives only
   public entry points: Harness.World.create/advance/report per world,
   Fuzz.Campaign.run, Mcheck.Frontier.explore and Mcheck.Dpor.explore.
   Every call is timed from outside. *)

module S = Harness.Scenario
module W = Harness.World

let now = Spans.now
let secs a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* Campaign and parallel BFS width: at most two domains, never more than
   the machine has. *)
let domains = min 2 (Exec.Pool.default_domains ())

type plan = {
  scenarios : S.t array;
  slices : int;  (** equal [World.advance] slices per world *)
  case_steps : bool;  (** a step is a whole world (create..report), not one slice *)
  extra_setups : int;  (** further timed [World.create] calls per repetition *)
  campaign : (int64 * int) option;  (** seed and case count, cross-checked against the per-case pass *)
  model : Mcheck.Model.config option;
  fresh_cases : bool;  (** each repetition draws its own cases, so digests differ across repetitions *)
}

let names = [ "ring-5e4"; "heartbeat-grid"; "contended-clique"; "verify" ]

let world_plan s =
  {
    scenarios = [| s |];
    slices = 400;
    case_steps = false;
    extra_setups = 4;
    campaign = None;
    model = None;
    fresh_cases = false;
  }

let path3 =
  {
    Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ];
    colors = [| 0; 1; 0 |];
    sessions = 1;
    crash_budget = 0;
    fp_budget = 1;
  }

let pair =
  { Mcheck.Model.graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ]; colors = [| 0; 1 |]; sessions = 2; crash_budget = 0; fp_budget = 0 }

(* [smoke] shrinks every workload to n <= 1000 and the long runs to a
   tenth of their virtual times, for the deterministic smoke check.
   [rep] only matters to verify: its per-world medians depend on which
   cases a seed draws, so each repetition draws its own and a run's
   median spans all of them. *)
let plan ?(rep = 0) ~smoke ~seed name =
  let seed = Int64.of_int seed in
  let d x = if smoke then x / 10 else x in
  let base =
    { S.default with name; seed; algo = S.Song_pike; check_every = None; crashes = S.No_crashes; workload = S.default_workload }
  in
  match name with
  | "ring-5e4" ->
      Some
        (world_plan
           {
             base with
             topology = Cgraph.Topology.Ring (if smoke then 1_000 else 50_000);
             delay = Net.Delay.Uniform (1, 8);
             detector = S.Never;
             (* Not shortened for smoke: a tenth would leave sessions
                open longer than wait-freedom's horizon/4 allowance. *)
             horizon = 1_200;
           })
  | "heartbeat-grid" ->
      Some
        (world_plan
           {
             base with
             topology = (if smoke then Cgraph.Topology.Grid (31, 31) else Cgraph.Topology.Grid (32, 32));
             detector = S.Heartbeat { period = 20; initial_timeout = 30; bump = 25 };
             delay = Net.Delay.Partial_synchrony { gst = d 6_000; pre = (1, 40); post = (1, 8) };
             crashes = S.Random_crashes { count = 10; from_t = d 3_000; to_t = d 9_000 };
             horizon = d 12_000;
           })
  | "contended-clique" ->
      Some
        (world_plan
           {
             base with
             topology = Cgraph.Topology.Clique 16;
             workload = S.contended_workload;
             detector = S.Oracle { detection_delay = 50; fp_per_edge = 2; fp_window = d 200_000; fp_max_len = 200 };
             crashes = S.Random_crashes { count = 1; from_t = d 100_000; to_t = d 400_000 };
             check_every = Some 97;
             horizon = d 1_600_000;
           })
  | "verify" ->
      let cases = if smoke then 20 else 400 in
      let seed = Int64.add seed (Int64.mul 1_000_003L (Int64.of_int rep)) in
      Some
        {
          scenarios = Array.init cases (fun case -> Fuzz.Gen.scenario ~profile:Fuzz.Gen.Sound ~campaign_seed:seed ~case);
          slices = 1;
          case_steps = true;
          extra_setups = 0;
          campaign = Some (seed, cases);
          model = Some (if smoke then pair else path3);
          fresh_cases = true;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Correctness: oracles, cross-checks and the run digest                *)

(* Counts a repetition must reproduce exactly: across repetitions of the
   same inputs, and between the traced and untraced runs. *)
type tally = {
  mutable worlds : int;
  mutable events : int;
  mutable eats : int;
  mutable hungry : int;
  mutable served : int;
  mutable sent : int;
  mutable delivered : int;
  mutable watermark : int;
  mutable mistakes : int;
  mutable max_consecutive : int;
  mutable states : int;
  mutable transitions : int;
  mutable dpor_transitions : int;
}

let tally () =
  {
    worlds = 0;
    events = 0;
    eats = 0;
    hungry = 0;
    served = 0;
    sent = 0;
    delivered = 0;
    watermark = 0;
    mistakes = 0;
    max_consecutive = 0;
    states = 0;
    transitions = 0;
    dpor_transitions = 0;
  }

let digest t =
  Printf.sprintf
    "worlds=%d events=%d eats=%d hungry=%d served=%d net.sent=%d net.delivered=%d watermark=%d mistakes=%d \
     max_consecutive=%d states=%d transitions=%d dpor_transitions=%d"
    t.worlds t.events t.eats t.hungry t.served t.sent t.delivered t.watermark t.mistakes t.max_consecutive t.states
    t.transitions t.dpor_transitions

let counter (r : W.report) name =
  match Obs.Metrics.find r.metrics name with Some (Obs.Metrics.Count c | Obs.Metrics.Level c) -> c | _ -> 0

(* Adds the world to the tally and returns whether an applicable oracle
   fired on it. *)
let check_world t (s : S.t) (r : W.report) =
  t.worlds <- t.worlds + 1;
  t.events <- t.events + r.events_processed;
  t.eats <- t.eats + r.total_eats;
  t.hungry <- t.hungry + r.hungry_transitions;
  t.served <- t.served + Monitor.Response.served_count r.response;
  t.sent <- t.sent + counter r "net.sent";
  t.delivered <- t.delivered + counter r "net.delivered";
  t.watermark <- max t.watermark (Net.Link_stats.max_edge_watermark r.link_stats);
  t.mistakes <- t.mistakes + r.detector_mistakes;
  t.max_consecutive <- max t.max_consecutive (Monitor.Fairness.max_consecutive r.fairness);
  let fails = Fuzz.Property.failures (Fuzz.Property.applicable s) r in
  List.iter (fun (p, msg) -> Printf.eprintf "FAIL %s (seed %Ld): %s: %s\n%!" s.name s.seed p msg) fails;
  fails <> []

(* The campaign must see exactly the per-case pass: same events and eats,
   no Sound failure. *)
let check_campaign t (c : Fuzz.Campaign.report) =
  let ok = c.failures = [] && c.total_events = t.events && c.total_eats = t.eats in
  if not ok then
    Printf.eprintf "FAIL campaign: %d failures, events %d vs %d, eats %d vs %d\n%!" (List.length c.failures)
      c.total_events t.events c.total_eats t.eats;
  not ok

let check_model t (f : Mcheck.Explore.result) (d : Mcheck.Explore.result) =
  t.states <- f.states;
  t.transitions <- f.transitions;
  t.dpor_transitions <- d.transitions;
  let ok =
    f.complete && d.complete && f.violation = None && d.violation = None && f.deadlocks = 0 && d.deadlocks = 0
    && f.states = d.states
  in
  if not ok then Printf.eprintf "FAIL mcheck: frontier %d states, dpor %d states\n%!" f.states d.states;
  not ok

let ops plan =
  Array.length plan.scenarios + Option.fold ~none:0 ~some:(fun _ -> 1) plan.campaign
  + Option.fold ~none:0 ~some:(fun _ -> 1) plan.model

let live_words () = (Gc.stat ()).Gc.live_words
let word_bytes = Sys.word_size / 8

(* ------------------------------------------------------------------ *)
(* Untraced repetition: the end-to-end numbers                         *)

(* Host speed. On a shared host, the time identical work takes drifts by
   7-50% over tens of seconds. The drift is largely common to all
   branchy, data-dependent code: over 5-21 s windows, this binary-heap
   loop, run between slices, correlates 0.94-0.98 with a simulated
   world's own times, and the work/loop ratio ranges over a third of
   what the raw time does. (A register-only loop misses the phases in
   which branchy code slows more than arithmetic.) Each repetition's
   times are therefore scaled by [kernel_ref_s] / (its median loop
   time): they are reported at the speed of a host on which the loop
   takes [kernel_ref_s]. The loop allocates nothing and touches only its
   own 160 KB array. *)
let kernel_ref_s = 0.0064

(* Steps (slices or cases) between two loop runs. *)
let calibrate_every = 10
let heap = Array.make 20_001 0

let kernel () =
  let t0 = now () in
  let n = ref 0 and x = ref 7 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let push v =
    let i = ref !n in
    incr n;
    heap.(!i) <- v;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      let p = (!i - 1) / 2 in
      let t = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- t;
      i := p
    done
  in
  let pop () =
    decr n;
    heap.(0) <- heap.(!n);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !n then sifting := false
      else
        let c = if l + 1 < !n && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < heap.(!i) then begin
          let t = heap.(c) in
          heap.(c) <- heap.(!i);
          heap.(!i) <- t;
          i := c
        end
        else sifting := false
    done
  in
  for _ = 1 to 20_000 do
    push (next ())
  done;
  for _ = 1 to 60_000 do
    push (next ());
    pop ()
  done;
  secs t0 (now ())

(* Per-world values are lists, one entry per world, so that verify's
   many worlds summarise by their median rather than by totals that
   depend on which cases a seed draws. *)
type rep = {
  wall_s : float;  (** create + advance + report of every world, plus campaign and model checking *)
  world_s : float;  (** create + advance + report only *)
  setup_s : float list;  (** [World.create] times *)
  steps_ms : float list;
  events_per_s : float list;  (** per world: events / advance seconds *)
  alloc_per_event : float list;  (** per world: words allocated by create + advance + report / events *)
  live_bytes_per_proc : float list;
  peak_heap_mb : float;
  attempted : int;
  failed : int;
  digest : string;
  kernel_s : float list;  (** [kernel] times in the order taken, between slices and worlds *)
  setup_kernel_s : float list;  (** [kernel] times taken among the extra set-ups *)
}

let run_rep plan =
  let t = tally () in
  let failed = ref 0 and world = ref 0. in
  let setups = ref [] and steps = ref [] and rates = ref [] and allocs = ref [] and lives = ref [] in
  let kernels = ref [ kernel () ] in
  let calibrate () = kernels := kernel () :: !kernels in
  Array.iteri
    (fun k (s : S.t) ->
      Gc.full_major ();
      let live0 = live_words () in
      let a0 = Gc.allocated_bytes () in
      let t0 = now () in
      let w = W.create s in
      let t1 = now () in
      let advance = ref 0. in
      for i = 1 to plan.slices do
        let ts = now () in
        W.advance w ~until:(s.horizon * i / plan.slices);
        let dt = secs ts (now ()) in
        advance := !advance +. dt;
        if not plan.case_steps then steps := (dt *. 1e3) :: !steps;
        if i mod calibrate_every = 0 then calibrate ()
      done;
      let t2 = now () in
      let r = W.report w in
      let t3 = now () in
      let world_s = secs t0 t1 +. !advance +. secs t2 t3 in
      let events = float_of_int r.events_processed in
      allocs := ((Gc.allocated_bytes () -. a0) /. float_of_int word_bytes /. events) :: !allocs;
      Gc.full_major ();
      let bytes = float_of_int ((live_words () - live0) * word_bytes) in
      ignore (Sys.opaque_identity w);
      lives := (bytes /. float_of_int (Cgraph.Graph.n r.graph)) :: !lives;
      setups := secs t0 t1 :: !setups;
      if plan.case_steps then steps := (world_s *. 1e3) :: !steps;
      rates := (events /. !advance) :: !rates;
      world := !world +. world_s;
      if check_world t s r then incr failed;
      if (k + 1) mod calibrate_every = 0 then calibrate ())
    plan.scenarios;
  let wall = ref !world in
  Option.iter
    (fun (seed, cases) ->
      let t0 = now () in
      let c = Fuzz.Campaign.run ~domains ~profile:Fuzz.Gen.Sound ~seed ~cases () in
      wall := !wall +. secs t0 (now ());
      calibrate ();
      if check_campaign t c then incr failed)
    plan.campaign;
  Option.iter
    (fun cfg ->
      let t0 = now () in
      let f = Mcheck.Frontier.explore ~max_states:400_000 ~domains cfg in
      let d = Mcheck.Dpor.explore ~max_states:400_000 cfg in
      wall := !wall +. secs t0 (now ());
      calibrate ();
      if check_model t f d then incr failed)
    plan.model;
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * word_bytes) /. 1e6 in
  (* Cheap set-ups get more samples: at least [extra_setups], then more
     until they have taken a quarter of a second. The heap is settled
     first, so that they do not pay the GC debt of the worlds above. *)
  if plan.extra_setups > 0 then Gc.full_major ();
  let spent = ref 0. and k = ref 0 and setup_kernels = ref [] in
  while !k < plan.extra_setups || (!k > 0 && !spent < 0.25 && !k < 200) do
    if !k mod 10 = 0 then setup_kernels := kernel () :: !setup_kernels;
    let t0 = now () in
    ignore (Sys.opaque_identity (W.create plan.scenarios.(0)));
    let dt = secs t0 (now ()) in
    setups := dt :: !setups;
    spent := !spent +. dt;
    incr k
  done;
  {
    wall_s = !wall;
    world_s = !world;
    setup_s = List.rev !setups;
    steps_ms = List.rev !steps;
    events_per_s = List.rev !rates;
    alloc_per_event = List.rev !allocs;
    live_bytes_per_proc = List.rev !lives;
    peak_heap_mb;
    attempted = ops plan;
    failed = !failed;
    digest = digest t;
    kernel_s = List.rev !kernels;
    setup_kernel_s = !setup_kernels;
  }

(* The repetition's times at the reference host speed (see [kernel]).
   The host's speed changes within a repetition too, so a step takes its
   factor from the loop runs nearest to it: runs j and j+1 bracket steps
   [calibrate_every * j] onwards, plus one more run on each side. Set-up
   times use the runs taken among the extra set-ups, when there are any.
   Totals and rates use the repetition's median. *)
let at_reference_speed r =
  let factor l =
    let sorted = List.sort compare l in
    kernel_ref_s /. List.nth sorted (List.length sorted / 2)
  in
  let f = factor r.kernel_s in
  let fs = if r.setup_kernel_s = [] then f else factor r.setup_kernel_s in
  let runs = Array.of_list r.kernel_s in
  let local i =
    let j = i / calibrate_every in
    let lo = max 0 (j - 1) and hi = min (Array.length runs) (j + 3) in
    if lo >= hi then f else factor (Array.to_list (Array.sub runs lo (hi - lo)))
  in
  {
    r with
    wall_s = r.wall_s *. f;
    world_s = r.world_s *. f;
    setup_s = List.map (fun x -> x *. fs) r.setup_s;
    steps_ms = List.mapi (fun i x -> x *. local i) r.steps_ms;
    events_per_s = List.map (fun x -> x /. f) r.events_per_s;
  }

let floats l = Json.Arr (List.map (fun f -> Json.Num f) l)
let to_floats v = List.map Json.to_float (Json.to_list v)

let rep_to_json r =
  Json.Obj
    [
      ("wall_s", Json.Num r.wall_s);
      ("world_s", Json.Num r.world_s);
      ("setup_s", floats r.setup_s);
      ("steps_ms", floats r.steps_ms);
      ("events_per_s", floats r.events_per_s);
      ("alloc_per_event", floats r.alloc_per_event);
      ("live_bytes_per_proc", floats r.live_bytes_per_proc);
      ("peak_heap_mb", Json.Num r.peak_heap_mb);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("digest", Json.Str r.digest);
      ("kernel_s", floats r.kernel_s);
      ("setup_kernel_s", floats r.setup_kernel_s);
    ]

let rep_of_json v =
  let f k = Json.to_float (Json.member k v) and l k = to_floats (Json.member k v) in
  {
    wall_s = f "wall_s";
    world_s = f "world_s";
    setup_s = l "setup_s";
    steps_ms = l "steps_ms";
    events_per_s = l "events_per_s";
    alloc_per_event = l "alloc_per_event";
    live_bytes_per_proc = l "live_bytes_per_proc";
    peak_heap_mb = f "peak_heap_mb";
    attempted = Json.to_int (Json.member "attempted" v);
    failed = Json.to_int (Json.member "failed" v);
    digest = Json.to_str (Json.member "digest" v);
    kernel_s = l "kernel_s";
    setup_kernel_s = l "setup_kernel_s";
  }

(* ------------------------------------------------------------------ *)
(* Rungs: one layer (or the stack without monitors) run on its own     *)

(* Runs [engine] up to [until], or until it drains, in steps of [step]
   virtual ticks, reading GC events after each step: a long rung read
   only at its end would overflow the runtime's event ring. *)
let run_polled engine ~step ~until =
  let t = ref (Sim.Engine.now engine) in
  while !t < until && Sim.Engine.pending engine > 0 do
    t := min until (!t + step);
    Sim.Engine.run engine ~until:!t;
    Spans.poll ()
  done

(* Engine alone: [n] owners rescheduling themselves with delays from
   [delay] until [events] events have fired. *)
let sim_rung ~n ~delay ~seed ~events ~step =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let budget = ref events in
  let rec fire pid () =
    if !budget > 0 then begin
      decr budget;
      let delay = Net.Delay.sample delay rng ~now:(Sim.Engine.now engine) in
      ignore (Sim.Engine.schedule_after engine ~owner:pid ~delay (fire pid))
    end
  in
  for pid = 0 to n - 1 do
    ignore (Sim.Engine.schedule engine ~owner:pid ~at:0 (fire pid))
  done;
  run_polled engine ~step ~until:max_int;
  Sim.Engine.processed engine

(* Network alone: one token per directed edge, bounced back on every
   delivery until [msgs] messages have been sent. *)
let net_rung ~graph ~delay ~seed ~msgs ~step =
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:(Cgraph.Graph.n graph) in
  let budget = ref msgs in
  let net = ref None in
  let send src dst =
    if !budget > 0 then begin
      decr budget;
      Option.iter (fun net -> Net.Network.send net ~src ~dst ()) !net
    end
  in
  net :=
    Some
      (Net.Network.create ~engine ~graph ~delay ~faults ~rng:(Sim.Rng.create seed)
         ~handler:(fun ~dst ~src () -> send dst src)
         ());
  Cgraph.Graph.iter_edges graph (fun u v ->
      send u v;
      send v u);
  run_polled engine ~step ~until:max_int;
  Sim.Engine.processed engine

(* Failure detector alone, on its own engine with the realised crash
   plan; returns its events and messages. *)
let fd_rung (s : S.t) ~graph ~crashed ~step =
  let engine = Sim.Engine.create () in
  let n = Cgraph.Graph.n graph in
  let faults = Net.Faults.create engine ~n in
  List.iter (fun (pid, at) -> Net.Faults.schedule_crash faults ~pid ~at) crashed;
  let rng = Sim.Rng.create s.seed in
  let metrics = Obs.Metrics.create () in
  (match s.detector with
  | S.Never -> ignore (Fd.Never.create ())
  | S.Perfect -> ignore (Fd.Perfect.create engine faults graph)
  | S.Oracle { detection_delay; fp_per_edge; fp_window; fp_max_len } ->
      let false_positives =
        if fp_per_edge = 0 then []
        else
          Fd.Oracle.random_false_positives
            (Sim.Rng.split_named rng "oracle-fp")
            graph ~before:fp_window ~per_edge:fp_per_edge ~max_len:fp_max_len
      in
      ignore (Fd.Oracle.create engine faults graph ~detection_delay ~false_positives ())
  | S.Heartbeat { period; initial_timeout; bump } ->
      ignore
        (Fd.Heartbeat.create ~engine ~faults ~graph ~delay:s.delay
           ~rng:(Sim.Rng.split_named rng "heartbeat")
           ~period ~initial_timeout ~bump ~metrics ())
  | S.Unreliable { period; duration } ->
      ignore
        (Fd.Unreliable.create engine faults graph
           (Sim.Rng.split_named rng "unreliable")
           ~period ~duration ~horizon:s.horizon ()));
  run_polled engine ~step ~until:s.horizon;
  let msgs = match Obs.Metrics.find metrics "net.sent" with Some (Obs.Metrics.Count c) -> c | _ -> 0 in
  (Sim.Engine.processed engine, msgs)

(* ------------------------------------------------------------------ *)
(* Traced repetition: the per-layer numbers                             *)

type traced = {
  t_world_s : float;
  t_attempted : int;
  t_failed : int;
  t_digest : string;
  layers : (string * float) list;
  spans : Spans.t list;
}

(* Name and unit of every per-layer metric, in report order. *)
let layer_units =
  [
    ("harness.create_s", "s");
    ("harness.advance_s", "s");
    ("harness.report_s", "s");
    ("cgraph.build_s", "s");
    ("cgraph.coloring_s", "s");
    ("dining.footprint_scan_s", "s");
    ("dining.check_invariants_s", "s");
    ("dining.advance_s", "s");
    ("dining.eats", "count");
    ("dining.eats_per_kevent", "eats/kevent");
    ("sim.events", "count");
    ("sim.ns_per_event", "ns");
    ("net.sent", "count");
    ("net.delivered", "count");
    ("net.msgs_per_eat", "msgs/eat");
    ("net.max_edge_watermark", "count");
    ("net.ns_per_msg", "ns");
    ("fd.detector_s", "s");
    ("fd.msgs", "count");
    ("fd.mistakes", "count");
    ("monitor.advance_s", "s");
    ("monitor.live_bytes_per_proc", "B");
    ("monitor.retained", "count");
    ("gc.minor_s", "s");
    ("gc.major_s", "s");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_event", "words/event");
    ("fuzz.oracles_s", "s");
    ("fuzz.cases_per_s", "cases/s");
    ("mcheck.states", "count");
    ("mcheck.transitions", "count");
    ("mcheck.dpor_transitions", "count");
    ("mcheck.states_per_s", "states/s");
    ("mcheck.dpor_states_per_s", "states/s");
    ("harness.step_ms_p99", "ms");
    ("trace.overhead_s", "s");
  ]

let run_traced plan =
  Spans.start ();
  let t = tally () in
  let failed = ref 0 in
  let acc = Hashtbl.create 32 in
  let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k)) in
  let get k = Option.value ~default:0. (Hashtbl.find_opt acc k) in
  let timed ?parent name f =
    Spans.span ?parent name (fun id ->
        let t0 = now () in
        let x = f id in
        add name (secs t0 (now ()));
        x)
  in
  let live_world = ref 0. and live_rung = ref 0. and procs = ref 0 in
  let sim_events = ref 0 and net_events = ref 0 and net_msgs = ref 0 in
  let fd_events = ref 0 and rung_events = ref 0 and dining_sent = ref 0 in
  let majors = ref 0 and promoted = ref 0. in
  Array.iter
    (fun (s : S.t) ->
      let step = max 1 (s.horizon / plan.slices) in
      Gc.full_major ();
      let live0 = live_words () in
      let q0 = Gc.quick_stat () in
      let create_id, report_id, w, r =
        timed "world" (fun wid ->
            let create_id, w = timed ~parent:wid "harness.create" (fun id -> (id, W.create s)) in
            timed ~parent:wid "harness.advance" (fun aid ->
                if plan.slices = 1 then W.advance w ~until:s.horizon
                else
                  for i = 1 to plan.slices do
                    Spans.span ~parent:aid "slice" (fun _ -> W.advance w ~until:(s.horizon * i / plan.slices))
                  done);
            let report_id, r = timed ~parent:wid "harness.report" (fun id -> (id, W.report w)) in
            (create_id, report_id, w, r))
      in
      let q1 = Gc.quick_stat () in
      majors := !majors + (q1.Gc.major_collections - q0.Gc.major_collections);
      promoted := !promoted +. (q1.Gc.promoted_words -. q0.Gc.promoted_words);
      let n = Cgraph.Graph.n r.graph in
      Gc.full_major ();
      live_world := !live_world +. float_of_int ((live_words () - live0) * word_bytes);
      procs := !procs + n;
      ignore (Sys.opaque_identity w);
      if timed "fuzz.oracles" (fun _ -> check_world t s r) then incr failed;
      add "monitor.retained"
        (float_of_int
           (List.length (Monitor.Fairness.overtakes r.fairness) + List.length (Monitor.Response.completed r.response)));
      (* Dining rung: the same world without monitors or invariant watcher. *)
      Gc.full_major ();
      let live0 = live_words () in
      let parts, eats =
        Spans.span "rung.dining" (fun rid ->
            let parts = Spans.span ~parent:rid "rung.dining.setup" (fun _ -> Harness.Setup.build s) in
            let eats = ref 0 in
            parts.instance.add_listener (fun _ phase -> if phase = Dining.Types.Eating then incr eats);
            ignore
              (Harness.Workload.attach ~engine:parts.engine ~faults:parts.faults ~n
                 ~rng:(Sim.Rng.split_named parts.rng "workload")
                 ~workload:s.workload parts.instance);
            timed ~parent:rid "rung.dining.advance" (fun _ -> run_polled parts.engine ~step ~until:s.horizon);
            (parts, eats))
      in
      Gc.full_major ();
      live_rung := !live_rung +. float_of_int ((live_words () - live0) * word_bytes);
      add "dining.eats" (float_of_int !eats);
      rung_events := !rung_events + Sim.Engine.processed parts.engine;
      dining_sent := !dining_sent + Net.Link_stats.total_sent parts.link_stats;
      (* Probes of the work World.create and World.report do inside. *)
      (match parts.song_pike with
      | Some algo ->
          timed ~parent:report_id "dining.footprint_scan" (fun _ ->
              for pid = 0 to n - 1 do
                ignore (Sys.opaque_identity (Dining.Algorithm.footprint_bits algo pid))
              done)
      | None -> ());
      let t0 = now () in
      Spans.span ~parent:report_id "dining.check_invariants" (fun _ -> parts.instance.check_invariants ());
      let calls = match s.check_every with None -> 1 | Some every -> (s.horizon / every) + 1 in
      add "dining.check_invariants_s" (secs t0 (now ()) *. float_of_int calls);
      let graph = timed ~parent:create_id "cgraph.build" (fun _ -> Cgraph.Topology.build s.topology) in
      ignore (timed ~parent:create_id "cgraph.coloring" (fun _ -> Cgraph.Coloring.greedy graph));
      (* Engine, network and detector rungs sized like this world. *)
      let ev =
        timed "rung.sim" (fun _ ->
            sim_rung ~n ~delay:s.delay ~seed:s.seed ~events:(Sim.Engine.processed parts.engine) ~step)
      in
      sim_events := !sim_events + ev;
      let sent = Net.Link_stats.total_sent parts.link_stats in
      let ev = timed "rung.net" (fun _ -> net_rung ~graph ~delay:s.delay ~seed:s.seed ~msgs:sent ~step) in
      net_events := !net_events + ev;
      net_msgs := !net_msgs + sent;
      let ev, msgs = timed "rung.fd" (fun _ -> fd_rung s ~graph ~crashed:r.crashed ~step) in
      fd_events := !fd_events + ev;
      add "fd.msgs" (float_of_int msgs))
    plan.scenarios;
  Option.iter
    (fun (seed, cases) ->
      let c = Spans.span "fuzz.campaign" (fun _ -> Fuzz.Campaign.run ~domains ~profile:Fuzz.Gen.Sound ~seed ~cases ()) in
      if check_campaign t c then incr failed)
    plan.campaign;
  Option.iter
    (fun cfg ->
      let f = timed "mcheck.frontier" (fun _ -> Mcheck.Frontier.explore ~max_states:400_000 ~domains cfg) in
      let d = timed "mcheck.dpor" (fun _ -> Mcheck.Dpor.explore ~max_states:400_000 cfg) in
      if check_model t f d then incr failed)
    plan.model;
  Hashtbl.iter
    (fun name n -> Printf.eprintf "runtime_events overwrote %d unread events in %s: its gc.* spans are incomplete\n%!" n name)
    Spans.lost_events;
  let spans = Spans.all () in
  let per x n = if n = 0 then 0. else x /. float_of_int n in
  let sim_ns = per (get "rung.sim") !sim_events in
  let net_ns = per (get "rung.net" -. (float_of_int !net_events *. sim_ns)) !net_msgs in
  let fd_s = get "rung.fd" and rung_advance = get "rung.dining.advance" in
  let layers =
    [
      ("harness.create_s", get "harness.create");
      ("harness.advance_s", get "harness.advance");
      ("harness.report_s", get "harness.report");
      ("cgraph.build_s", get "cgraph.build");
      ("cgraph.coloring_s", get "cgraph.coloring");
      ("dining.footprint_scan_s", get "dining.footprint_scan");
      ("dining.check_invariants_s", get "dining.check_invariants_s");
      ( "dining.advance_s",
        rung_advance
        -. (float_of_int (!rung_events - !fd_events) *. sim_ns)
        -. (float_of_int !dining_sent *. net_ns)
        -. fd_s );
      ("dining.eats", get "dining.eats");
      ("dining.eats_per_kevent", per (get "dining.eats") t.events *. 1e3);
      ("sim.events", float_of_int t.events);
      ("sim.ns_per_event", sim_ns *. 1e9);
      ("net.sent", float_of_int t.sent);
      ("net.delivered", float_of_int t.delivered);
      ("net.msgs_per_eat", per (float_of_int !dining_sent) t.eats);
      ("net.max_edge_watermark", float_of_int t.watermark);
      ("net.ns_per_msg", net_ns *. 1e9);
      ("fd.detector_s", fd_s);
      ("fd.msgs", get "fd.msgs");
      ("fd.mistakes", float_of_int t.mistakes);
      ("monitor.advance_s", get "harness.advance" -. rung_advance);
      ("monitor.live_bytes_per_proc", per (!live_world -. !live_rung) !procs);
      ("monitor.retained", get "monitor.retained");
      ("gc.minor_s", Spans.total_under spans ~under:"world" "gc.minor");
      ("gc.major_s", Spans.total_under spans ~under:"world" "gc.major");
      ("gc.major_collections", float_of_int !majors);
      ("gc.promoted_words_per_event", per !promoted t.events);
      ("fuzz.oracles_s", get "fuzz.oracles");
      ("fuzz.cases_per_s", float_of_int (Array.length plan.scenarios) /. (get "world" +. get "fuzz.oracles"));
      ("mcheck.states", float_of_int t.states);
      ("mcheck.transitions", float_of_int t.transitions);
      ("mcheck.dpor_transitions", float_of_int t.dpor_transitions);
      ("mcheck.states_per_s", if t.states = 0 then 0. else float_of_int t.states /. get "mcheck.frontier");
      ("mcheck.dpor_states_per_s", if t.states = 0 then 0. else float_of_int t.states /. get "mcheck.dpor");
    ]
  in
  {
    t_world_s = get "world";
    t_attempted = ops plan;
    t_failed = !failed;
    t_digest = digest t;
    layers;
    spans;
  }

let traced_to_json r =
  Json.Obj
    [
      ("world_s", Json.Num r.t_world_s);
      ("attempted", Json.Num (float_of_int r.t_attempted));
      ("failed", Json.Num (float_of_int r.t_failed));
      ("digest", Json.Str r.t_digest);
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.layers));
      ("spans", Json.Arr (List.map Spans.to_json r.spans));
    ]

let traced_of_json v =
  {
    t_world_s = Json.to_float (Json.member "world_s" v);
    t_attempted = Json.to_int (Json.member "attempted" v);
    t_failed = Json.to_int (Json.member "failed" v);
    t_digest = Json.to_str (Json.member "digest" v);
    layers = List.map (fun (k, v) -> (k, Json.to_float v)) (Json.to_assoc (Json.member "layers" v));
    spans = List.map Spans.of_json (Json.to_list (Json.member "spans" v));
  }
