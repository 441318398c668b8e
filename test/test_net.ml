(* Tests for the network substrate: Faults, Delay, Link_stats, Network. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let ring4 () = Cgraph.Topology.build (Cgraph.Topology.Ring 4)

let make_net ?(delay = Net.Delay.Uniform (1, 10)) ?(seed = 1L) ?on_drop ?codec ~handler () =
  let engine = Sim.Engine.create () in
  let graph = ring4 () in
  let faults = Net.Faults.create engine ~n:4 in
  let rng = Sim.Rng.create seed in
  let net = Net.Network.create ~engine ~graph ~delay ~faults ~rng ?on_drop ?codec ~handler () in
  (engine, faults, net)

(* ------------------------------ Faults ----------------------------- *)

let faults_basics () =
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:3 in
  check bool "initially live" false (Net.Faults.is_crashed faults 0);
  check bool "initially correct" true (Net.Faults.correct faults 0);
  Net.Faults.schedule_crash faults ~pid:1 ~at:50;
  check bool "not crashed yet" false (Net.Faults.is_crashed faults 1);
  check bool "already not correct" false (Net.Faults.correct faults 1);
  ignore (Sim.Engine.schedule engine ~at:100 (fun () -> ()));
  Sim.Engine.run_all engine;
  check bool "crashed after time" true (Net.Faults.is_crashed faults 1);
  check (Alcotest.list int) "crashed_by" [ 1 ] (Net.Faults.crashed_by faults 60)

let faults_earliest_wins () =
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:2 in
  Net.Faults.schedule_crash faults ~pid:0 ~at:100;
  Net.Faults.schedule_crash faults ~pid:0 ~at:50;
  Net.Faults.schedule_crash faults ~pid:0 ~at:200;
  check int "earliest wins" 50 (Net.Faults.crash_time faults 0)

let faults_notifies () =
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:3 in
  let crashes = ref [] in
  Net.Faults.on_crash faults (fun pid -> crashes := (pid, Sim.Engine.now engine) :: !crashes);
  Net.Faults.schedule_crash faults ~pid:2 ~at:30;
  Net.Faults.schedule_crash faults ~pid:0 ~at:10;
  Sim.Engine.run_all engine;
  check bool "both notified in order" true (List.rev !crashes = [ (0, 10); (2, 30) ])

(* Regression: rescheduling a crash earlier used to leave the original
   crash event armed, so listeners fired a second time when it came due. *)
let faults_rescheduled_crash_notifies_once () =
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:2 in
  let crashes = ref [] in
  Net.Faults.on_crash faults (fun pid -> crashes := (pid, Sim.Engine.now engine) :: !crashes);
  Net.Faults.schedule_crash faults ~pid:0 ~at:100;
  Net.Faults.schedule_crash faults ~pid:0 ~at:40;
  Net.Faults.schedule_crash faults ~pid:0 ~at:200 (* later: ignored *);
  Sim.Engine.run_all engine;
  check bool "exactly one notification, at the earliest time" true (!crashes = [ (0, 40) ])

(* Regression: a crash moved earlier used to leave a withdrawn event in
   the queue. A run popped it without moving the clock, so the queue's
   last popped tick ended above [now] and the next post from [now]
   raised. The superseded event now fires as a no-op and moves the
   clock with it. *)
let faults_rescheduled_crash_keeps_posts_legal () =
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:1 in
  let crashes = ref [] in
  Net.Faults.on_crash faults (fun pid -> crashes := (pid, Sim.Engine.now engine) :: !crashes);
  Net.Faults.schedule_crash faults ~pid:0 ~at:100;
  Net.Faults.schedule_crash faults ~pid:0 ~at:40;
  Sim.Engine.run engine ~until:150;
  let fired = ref false in
  ignore (Sim.Engine.schedule_after engine ~delay:1 (fun () -> fired := true));
  check int "the superseded crash event fired as a no-op" 2 (Sim.Engine.processed engine);
  Sim.Engine.run_all engine;
  check bool "a post after the run fires" true !fired;
  check int "one tick after the superseded event" 101 (Sim.Engine.now engine);
  check bool "one crash, at the earliest time" true (!crashes = [ (0, 40) ])

(* [is_crashed] answers from the earliest scheduled crash until one is
   due, so every crash, first or moved earlier, must lower it. Probes
   at each tick read every pid: pid 2's crash at 100 is moved to 30,
   below pid 1's at 50, after pid 1's was scheduled. *)
let faults_is_crashed_tracks_the_earliest_crash () =
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:4 in
  let seen = ref [] in
  for at = 0 to 60 do
    Sim.Engine.schedule engine ~at (fun () ->
        let crashed = List.filter (Net.Faults.is_crashed faults) [ 0; 1; 2; 3 ] in
        if crashed <> [] then seen := (at, crashed) :: !seen)
  done;
  Net.Faults.schedule_crash faults ~pid:2 ~at:100;
  Net.Faults.schedule_crash faults ~pid:1 ~at:50;
  Sim.Engine.run engine ~until:10;
  Net.Faults.schedule_crash faults ~pid:2 ~at:30;
  Sim.Engine.run engine ~until:60;
  let expected = List.init 31 (fun i -> (30 + i, if 30 + i >= 50 then [ 1; 2 ] else [ 2 ])) in
  check
    (Alcotest.list (Alcotest.pair int (Alcotest.list int)))
    "nobody before the earliest crash, each pid from its crash tick on" expected (List.rev !seen);
  check (Alcotest.list int) "crashed_by before the earliest crash" [] (Net.Faults.crashed_by faults 29);
  check (Alcotest.list int) "crashed_by at it" [ 2 ] (Net.Faults.crashed_by faults 30)

let faults_listeners_fire_in_registration_order () =
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:1 in
  let order = ref [] in
  Net.Faults.on_crash faults (fun _ -> order := "first" :: !order);
  Net.Faults.on_crash faults (fun _ -> order := "second" :: !order);
  Net.Faults.schedule_crash faults ~pid:0 ~at:5;
  Sim.Engine.run_all engine;
  check (Alcotest.list Alcotest.string) "registration order" [ "first"; "second" ]
    (List.rev !order)

(* ------------------------------ Delay ------------------------------ *)

let delay_bounds () =
  let rng = Sim.Rng.create 3L in
  for _ = 1 to 200 do
    let d = Net.Delay.sample (Net.Delay.Uniform (2, 9)) rng ~now:0 in
    check bool "uniform in range" true (d >= 2 && d <= 9)
  done;
  check int "fixed" 7 (Net.Delay.sample (Net.Delay.Fixed 7) rng ~now:0);
  check int "fixed clamps to 1" 1 (Net.Delay.sample (Net.Delay.Fixed 0) rng ~now:0);
  for _ = 1 to 200 do
    let d = Net.Delay.sample (Net.Delay.Exponential (5.0, 20)) rng ~now:0 in
    check bool "exponential capped" true (d >= 1 && d <= 20)
  done

let delay_partial_synchrony () =
  let rng = Sim.Rng.create 4L in
  let model = Net.Delay.Partial_synchrony { gst = 100; pre = (1, 50); post = (1, 5) } in
  for _ = 1 to 100 do
    check bool "post-GST bound" true (Net.Delay.sample model rng ~now:100 <= 5)
  done;
  check (Alcotest.option int) "upper bound after GST" (Some 5)
    (Net.Delay.upper_bound_after model 100);
  check (Alcotest.option int) "upper bound before GST" (Some 50)
    (Net.Delay.upper_bound_after model 0)

(* Regression: a uniform draw built a (lo, hi) tuple on top of the
   generator's own boxing, once per message sent. *)
let delay_sample_allocates_nothing () =
  let rng = Sim.Rng.create 4L in
  let uniform = Net.Delay.Uniform (1, 8) in
  let psync = Net.Delay.Partial_synchrony { gst = 100; pre = (1, 50); post = (1, 5) } in
  let acc = ref 0 in
  let words =
    Alloc.words (fun () ->
        for now = 1 to 1000 do
          acc :=
            !acc + Net.Delay.sample uniform rng ~now + Net.Delay.sample psync rng ~now:(now mod 200)
        done)
  in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.) "words for 2000 draws" 0. words

(* ----------------------------- Network ----------------------------- *)

let network_delivers () =
  let got = ref [] in
  let engine, _, net = make_net ~handler:(fun ~dst ~src msg -> got := (dst, src, msg) :: !got) () in
  Net.Network.send net ~src:0 ~dst:1 "hello";
  Sim.Engine.run_all engine;
  check bool "delivered once" true (!got = [ (1, 0, "hello") ])

(* With a codec, a message is an engine event of four ints in a pooled
   slot, queued on the wheel's links: once a warm-up round has grown the
   pool, the links and the wheel levels its delays reach, sending and
   delivering it allocates nothing on either heap. Regressions: the
   event was a record plus a delivery closure (10 words a message); then
   a delivery past the current 256-tick window cost a wheel list cell,
   and each cascade regrew level-0 value arrays, the large ones in the
   major heap. Delays up to 1 000 ticks cross several level-1 slot
   boundaries per round. *)
let network_message_allocation () =
  let got = ref 0 in
  let engine, _, net =
    make_net ~delay:(Net.Delay.Uniform (1, 1_000))
      ~codec:((fun () -> 0), fun _ -> ())
      ~handler:(fun ~dst:_ ~src:_ () -> incr got)
      ()
  in
  let round () =
    for i = 0 to 99 do
      Net.Network.send net ~src:(i land 3) ~dst:((i + 1) land 3) ()
    done;
    Sim.Engine.run_all engine
  in
  round ();
  let words = Alloc.words round in
  check int "all delivered" 200 !got;
  check (Alcotest.float 0.) "words for 100 messages" 0. words

let network_fifo_per_channel () =
  let got = ref [] in
  let engine, _, net = make_net ~handler:(fun ~dst:_ ~src:_ msg -> got := msg :: !got) () in
  for i = 1 to 50 do
    Net.Network.send net ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_all engine;
  check (Alcotest.list int) "FIFO order" (List.init 50 (fun i -> i + 1)) (List.rev !got)

let network_fifo_property =
  QCheck.Test.make ~name:"network: per-channel FIFO under random delays" ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 1 60))
    (fun (seed, count) ->
      let got = ref [] in
      let engine, _, net =
        make_net
          ~delay:(Net.Delay.Uniform (1, 50))
          ~seed:(Int64.of_int seed)
          ~handler:(fun ~dst:_ ~src msg -> got := (src, msg) :: !got)
          ()
      in
      (* Interleave sends on two channels into the same destination. *)
      for i = 1 to count do
        Net.Network.send net ~src:0 ~dst:1 i;
        Net.Network.send net ~src:2 ~dst:1 i
      done;
      Sim.Engine.run_all engine;
      let per_src s = List.rev (List.filter_map (fun (src, m) -> if src = s then Some m else None) !got) in
      per_src 0 = List.init count (fun i -> i + 1) && per_src 2 = List.init count (fun i -> i + 1))

let network_rejects_non_neighbors () =
  let _, _, net = make_net ~handler:(fun ~dst:_ ~src:_ _ -> ()) () in
  Alcotest.check_raises "non-edge rejected"
    (Invalid_argument "Network.send: 0 and 2 are not neighbors") (fun () ->
      Net.Network.send net ~src:0 ~dst:2 ())

let network_drops_to_crashed () =
  let delivered = ref 0 and dropped = ref [] in
  let engine, faults, net =
    make_net
      ~delay:(Net.Delay.Fixed 10)
      ~on_drop:(fun ~src:_ ~dst msg -> dropped := (dst, msg) :: !dropped)
      ~handler:(fun ~dst:_ ~src:_ _ -> incr delivered)
      ()
  in
  Net.Faults.schedule_crash faults ~pid:1 ~at:5;
  ignore
    (Sim.Engine.schedule engine ~at:0 (fun () -> Net.Network.send net ~src:0 ~dst:1 "doomed"));
  Sim.Engine.run_all engine;
  check int "nothing delivered" 0 !delivered;
  check bool "drop hook called" true (!dropped = [ (1, "doomed") ]);
  let stats = Net.Network.stats net in
  check int "recorded as sent" 1 (Net.Link_stats.total_sent stats);
  check int "not recorded as delivered" 0 (Net.Link_stats.total_delivered stats);
  check int "recorded as dropped, so no longer in flight" 1 (Net.Link_stats.total_dropped stats)

let network_crashed_source_sends_nothing () =
  let delivered = ref 0 in
  let engine, faults, net = make_net ~handler:(fun ~dst:_ ~src:_ _ -> incr delivered) () in
  Net.Faults.schedule_crash faults ~pid:0 ~at:5;
  ignore
    (Sim.Engine.schedule engine ~at:10 (fun () -> Net.Network.send net ~src:0 ~dst:1 "ghost"));
  Sim.Engine.run_all engine;
  check int "silent after crash" 0 !delivered;
  check int "not even counted" 0 (Net.Link_stats.total_sent (Net.Network.stats net))

let network_in_flight_messages_survive_sender_crash () =
  let delivered = ref 0 in
  let engine, faults, net =
    make_net ~delay:(Net.Delay.Fixed 20) ~handler:(fun ~dst:_ ~src:_ _ -> incr delivered) ()
  in
  ignore (Sim.Engine.schedule engine ~at:0 (fun () -> Net.Network.send net ~src:0 ~dst:1 "x"));
  Net.Faults.schedule_crash faults ~pid:0 ~at:5;
  Sim.Engine.run_all engine;
  check int "message sent before crash still arrives" 1 !delivered

(* ---------------------------- Link_stats --------------------------- *)

let link_stats_watermarks () =
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let stats = Net.Link_stats.create ~engine:(Sim.Engine.create ()) ~graph () in
  (* The per-kind breakdown streams from the trace: each record here is
     what a network emits next to the matching Link_stats call. *)
  let recorder = Obs.Recorder.create () in
  let by_kind = Net.Kind_watermarks.attach recorder in
  let send src dst tag at =
    ignore
      (Net.Link_stats.record_send stats ~slot:(Cgraph.Graph.dir_index graph src dst) ~at
         ~deliver_at:(at + 10));
    Obs.Recorder.send recorder ~time:at ~src ~dst ~tag ~deliver_at:(at + 10)
  in
  send 0 1 "a" 1;
  send 1 0 "b" 2;
  send 0 1 "a" 3;
  check int "edge in flight counts both directions" 3 (Net.Link_stats.max_edge_watermark stats);
  Net.Link_stats.record_delivery stats ~slot:(Cgraph.Graph.dir_index graph 0 1);
  Obs.Recorder.deliver recorder ~time:4 ~src:0 ~dst:1 ~tag:"a";
  check int "watermark keeps max" 3 (Net.Link_stats.max_edge_watermark stats);
  send 0 1 "a" 5;
  check int "delivery decrements: back to 3, not 4" 3 (Net.Link_stats.max_edge_watermark stats);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair int int) int))
    "per edge, only edges that carried traffic" [ ((0, 1), 3) ]
    (Net.Link_stats.per_edge_watermarks stats);
  check (Alcotest.list (Alcotest.pair Alcotest.string int)) "per kind" [ ("a", 2); ("b", 1) ]
    (Net.Kind_watermarks.max_by_kind by_kind)

(* Deliveries are not counted: they are what was sent and neither
   dropped nor in flight. Drops count per edge, both directions, and
   either slot of the edge reads its counts. *)
let link_stats_drops () =
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let stats = Net.Link_stats.create ~engine:(Sim.Engine.create ()) ~graph () in
  let slot = Cgraph.Graph.dir_index graph in
  List.iter
    (fun (a, b) -> ignore (Net.Link_stats.record_send stats ~slot:(slot a b) ~at:1 ~deliver_at:1))
    [ (0, 1); (1, 0); (1, 0); (2, 1) ];
  Net.Link_stats.record_drop stats ~slot:(slot 0 1);
  Net.Link_stats.record_drop stats ~slot:(slot 1 0);
  Net.Link_stats.record_delivery stats ~slot:(slot 2 1);
  check int "edge drops, both directions" 2 (Net.Link_stats.edge_dropped stats (slot 0 1));
  check int "edge drops, read at the upper slot" 2 (Net.Link_stats.edge_dropped stats (slot 1 0));
  check int "edge in flight" 1 (Net.Link_stats.edge_in_flight stats (slot 0 1));
  check int "edge in flight, read at the upper slot" 1 (Net.Link_stats.edge_in_flight stats (slot 1 0));
  check int "the other edge: no drops" 0 (Net.Link_stats.edge_dropped stats (slot 2 1));
  check int "sent" 4 (Net.Link_stats.total_sent stats);
  check int "dropped" 2 (Net.Link_stats.total_dropped stats);
  check int "delivered = sent - dropped - in flight" 1 (Net.Link_stats.total_delivered stats);
  Alcotest.check_raises "a delivery needs a message in flight"
    (Invalid_argument "Link_stats: a delivery or drop on an edge with nothing in flight")
    (fun () -> Net.Link_stats.record_delivery stats ~slot:(slot 1 2));
  check int "the watermark survives the rejected delivery" 1
    (List.assoc (1, 2) (Net.Link_stats.per_edge_watermarks stats))

let link_stats_last_send () =
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let stats = Net.Link_stats.create ~engine:(Sim.Engine.create ()) ~graph () in
  check bool "none initially" true (Net.Link_stats.last_send_to stats 1 = None);
  let send a b at =
    ignore (Net.Link_stats.record_send stats ~slot:(Cgraph.Graph.dir_index graph a b) ~at ~deliver_at:at)
  in
  send 0 1 5;
  send 2 1 7;
  send 1 2 9;
  check bool "last send to, over every incoming edge" true
    (Net.Link_stats.last_send_to stats 1 = Some 7);
  check bool "its own sends do not count" true (Net.Link_stats.last_send_to stats 0 = None);
  check bool "last send to the other end" true (Net.Link_stats.last_send_to stats 2 = Some 9);
  check int "total to dst, over every incoming edge" 2 (Net.Link_stats.total_sends_to stats ~dst:1);
  check int "total to dst, sends from it excluded" 0 (Net.Link_stats.total_sends_to stats ~dst:0)

(* A send at time 0 is recorded (stamps are stored + 1, so 0 is not
   "never"), and each slot's FIFO floor clamps only its own later
   sends. *)
let link_stats_fifo_floor () =
  let graph = Cgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let stats = Net.Link_stats.create ~engine:(Sim.Engine.create ()) ~graph () in
  let send a b ~at ~deliver_at =
    Net.Link_stats.record_send stats ~slot:(Cgraph.Graph.dir_index graph a b) ~at ~deliver_at
  in
  check int "first send: as asked" 20 (send 0 1 ~at:0 ~deliver_at:20);
  check bool "a send at t=0 counts" true (Net.Link_stats.last_send_to stats 1 = Some 0);
  check int "an earlier time is clamped to the floor" 20 (send 0 1 ~at:1 ~deliver_at:4);
  check int "the reverse slot has its own floor" 4 (send 1 0 ~at:1 ~deliver_at:4);
  check int "the next slot of the row too" 3 (send 1 2 ~at:1 ~deliver_at:3);
  check int "a later time raises the floor" 30 (send 0 1 ~at:2 ~deliver_at:30);
  check int "and clamps from there" 30 (send 0 1 ~at:3 ~deliver_at:25);
  check int "sends counted" 6 (Net.Link_stats.total_sent stats)

(* The slot form: a send names its channel slot, and the handler (or
   [on_drop], once the destination has crashed) receives that slot. The
   pid-form send lands on the same channel. *)
let network_slot_form () =
  let engine = Sim.Engine.create () in
  let graph = ring4 () in
  let faults = Net.Faults.create engine ~n:4 in
  let got = ref [] in
  let net =
    Net.Network.create_slotted ~engine ~graph ~delay:(Net.Delay.Fixed 3) ~faults
      ~rng:(Sim.Rng.create 1L)
      ~on_drop:(fun ~dst ~slot msg -> got := (dst, slot, "dropped " ^ msg) :: !got)
      ~handler:(fun ~dst ~slot msg -> got := (dst, slot, msg) :: !got)
      ()
  in
  let s = Cgraph.Graph.dir_index graph 2 3 in
  Net.Network.send_slot net ~src:2 s "a";
  Net.Network.send net ~src:2 ~dst:3 "b";
  Sim.Engine.run_all engine;
  Net.Faults.schedule_crash faults ~pid:3 ~at:10;
  Sim.Engine.schedule engine ~at:10 (fun () -> Net.Network.send_slot net ~src:2 s "c");
  Sim.Engine.run_all engine;
  check
    (Alcotest.list (Alcotest.triple int int Alcotest.string))
    "slot delivered" [ (3, s, "a"); (3, s, "b"); (3, s, "dropped c") ] (List.rev !got)

(* ------------------- Link_stats against its reference ------------------ *)

(* One message event: its canonical rank in the step, its owner (the
   source for a send, the destination for a delivery or drop: the
   shard that fires it) and the record it makes. *)
type op = {
  rank : int;
  owner : int;
  code : [ `Send | `Deliver | `Drop ];
  slot : int;
  kind : int;
  deliver_at : int; (* a send's requested delivery time, before the FIFO clamp *)
}

let kind_count = 3

(* A random step of events on [graph]. Each event belongs to one
   process: it may take one message off an incoming channel, then send
   up to two. A message is delivered only in a later step than its send
   (as the engine's step barrier guarantees); [pending] holds the kinds
   in flight per slot, oldest first. *)
let gen_step st graph pending =
  let n = Cgraph.Graph.n graph in
  let off = Cgraph.Graph.csr_offsets graph and rev = Cgraph.Graph.rev_slots graph in
  let avail = Array.map Queue.length pending in
  let ops = ref [] in
  for rank = 0 to Random.State.int st 12 do
    let p = Random.State.int st n in
    let deg = off.(p + 1) - off.(p) in
    if deg > 0 then begin
      let inc = rev.(off.(p) + Random.State.int st deg) in
      if avail.(inc) > 0 && Random.State.bool st then begin
        avail.(inc) <- avail.(inc) - 1;
        let code = if Random.State.int st 4 = 0 then `Drop else `Deliver in
        ops :=
          { rank; owner = p; code; slot = inc; kind = Queue.pop pending.(inc); deliver_at = 0 }
          :: !ops
      end;
      for _ = 1 to Random.State.int st 3 do
        let slot = off.(p) + Random.State.int st deg in
        let kind = Random.State.int st kind_count in
        Queue.push kind pending.(slot);
        let deliver_at = Random.State.int st 60 in
        ops := { rank; owner = p; code = `Send; slot; kind; deliver_at } :: !ops
      done
    end
  done;
  List.rev !ops

(* An op's result: a send's granted delivery time, -1 otherwise. *)
let apply_ref oracle ~at o =
  match o.code with
  | `Send ->
      Link_stats_ref.record_send oracle ~slot:o.slot ~kind:o.kind ~at ~deliver_at:o.deliver_at
  | `Deliver ->
      Link_stats_ref.record_delivery oracle ~slot:o.slot ~kind:o.kind;
      -1
  | `Drop ->
      Link_stats_ref.record_drop oracle ~slot:o.slot ~kind:o.kind;
      -1

let apply stats ~at o =
  match o.code with
  | `Send -> Net.Link_stats.record_send stats ~slot:o.slot ~at ~deliver_at:o.deliver_at
  | `Deliver ->
      Net.Link_stats.record_delivery stats ~slot:o.slot;
      -1
  | `Drop ->
      Net.Link_stats.record_drop stats ~slot:o.slot;
      -1

(* Every query, as named ints; the edge queries at every slot, so both
   the lower slot's in-flight cell and the upper slot's drop count are
   read from either end. *)
let view_new graph stats =
  let n = Cgraph.Graph.n graph and dirs = Cgraph.Graph.dir_count graph in
  let module L = Net.Link_stats in
  [
    ("sent", L.total_sent stats);
    ("delivered", L.total_delivered stats);
    ("dropped", L.total_dropped stats);
    ("max watermark", L.max_edge_watermark stats);
  ]
  @ List.init n (fun p -> (Printf.sprintf "sends to %d" p, L.total_sends_to stats ~dst:p))
  @ List.init n (fun p ->
        (Printf.sprintf "last send to %d" p, Option.value (L.last_send_to stats p) ~default:(-1)))
  @ List.init dirs (fun s -> (Printf.sprintf "in flight %d" s, L.edge_in_flight stats s))
  @ List.init dirs (fun s -> (Printf.sprintf "dropped %d" s, L.edge_dropped stats s))

let view_ref graph oracle =
  let n = Cgraph.Graph.n graph and dirs = Cgraph.Graph.dir_count graph in
  let module R = Link_stats_ref in
  [
    ("sent", R.total_sent oracle);
    ("delivered", R.total_delivered oracle);
    ("dropped", R.total_dropped oracle);
    ("max watermark", R.max_edge_watermark oracle);
  ]
  @ List.init n (fun p -> (Printf.sprintf "sends to %d" p, R.total_sends_to oracle ~dst:p))
  @ List.init n (fun p ->
        (Printf.sprintf "last send to %d" p, Option.value (R.last_send_to oracle p) ~default:(-1)))
  @ List.init dirs (fun s -> (Printf.sprintf "in flight %d" s, R.edge_in_flight oracle s))
  @ List.init dirs (fun s -> (Printf.sprintf "dropped %d" s, R.edge_dropped oracle s))

let agree ~what graph stats oracle =
  check (Alcotest.list (Alcotest.pair Alcotest.string int)) what (view_ref graph oracle)
    (view_new graph stats);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair int int) int))
    (what ^ ": per-edge watermarks")
    (Link_stats_ref.per_edge_watermarks oracle)
    (Net.Link_stats.per_edge_watermarks stats)

let random_graph st =
  let n = 2 + Random.State.int st 11 in
  let p = 0.2 +. Random.State.float st 0.6 in
  let g = Cgraph.Topology.build (Cgraph.Topology.Random_gnp (n, p, Random.State.int64 st 1_000_000L)) in
  if Cgraph.Graph.edge_count g > 0 then g else Cgraph.Topology.build (Cgraph.Topology.Ring (max 3 n))

(* [pool] = None: an unsharded engine, every op in place in rank
   order. Otherwise the stats record for an engine sharded [shards] ways
   on [pool], and each step either applies its ops in place, outside any
   step, or posts them as events at the step's tick, in rank order, each
   owned by the process that makes it, and runs the engine: its parallel
   step fires the shards on the pool and merges the deferred edge
   updates in rank order. The reference always sees the step in rank
   order. Every send's granted delivery time (the FIFO clamp) must
   match the reference's too. *)
let differential ~pool ~shards () =
  for case = 0 to 29 do
    let st = Random.State.make [| 0x51; shards; case |] in
    let graph = random_graph st in
    let engine = Sim.Engine.create () in
    Option.iter
      (fun pool -> Sim.Engine.set_sharding engine ~pool ~shards ~n:(Cgraph.Graph.n graph) ())
      pool;
    let stats = Net.Link_stats.create ~engine ~graph () in
    let oracle = Link_stats_ref.create ~graph ~kinds:(Array.init kind_count string_of_int) () in
    let step_ops = ref [||] and granted = ref [||] in
    let fire =
      Sim.Engine.register engine (fun _ i _ ->
          !granted.(i) <- apply stats ~at:(Sim.Engine.now engine) !step_ops.(i))
    in
    let pending = Array.init (Cgraph.Graph.dir_count graph) (fun _ -> Queue.create ()) in
    for at = 0 to 39 do
      let ops = gen_step st graph pending in
      let expected = List.map (apply_ref oracle ~at) ops in
      step_ops := Array.of_list ops;
      granted := Array.make (Array.length !step_ops) (-2);
      if pool = None || Random.State.int st 3 = 0 then
        List.iteri (fun i o -> !granted.(i) <- apply stats ~at o) ops
      else begin
        Array.iteri
          (fun i o -> Sim.Engine.post engine ~kind:fire ~owner:o.owner ~at i 0)
          !step_ops;
        Sim.Engine.run engine ~until:at
      end;
      check (Alcotest.list int)
        (Printf.sprintf "case %d, step %d: granted delivery times" case at)
        expected (Array.to_list !granted);
      agree ~what:(Printf.sprintf "case %d, step %d" case at) graph stats oracle
    done
  done

let link_stats_matches_reference () = differential ~pool:None ~shards:0 ()

let link_stats_staged_matches_reference () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      differential ~pool:(Some pool) ~shards:2 ();
      differential ~pool:(Some pool) ~shards:3 ())

(* A process of ring 8 that, at each tick of a three-tick round, sends
   on every slot of its row, takes one message off every incoming
   channel, or both; with [record] off it does the same work and
   records nothing. Its event re-posts itself for the next tick, and
   the processes are first posted 7 down to 0, so every step pops
   shard 1 (pids 4-7) before shard 0. The round's middle step has even
   processes receive and odd ones send: on an edge whose higher pid is
   odd the send comes first and the edge reaches 3 in flight, otherwise
   2. Applied shard by shard, the cross-shard edges (3, 4) and (0, 7)
   would swap those watermarks: only the rank-order merge gets them
   right. *)
let ring8_rounds ?pool ~record () =
  let graph = Cgraph.Topology.build (Cgraph.Topology.Ring 8) in
  let off = Cgraph.Graph.csr_offsets graph and rev = Cgraph.Graph.rev_slots graph in
  let engine = Sim.Engine.create () in
  Option.iter (fun pool -> Sim.Engine.set_sharding engine ~pool ~shards:2 ~n:8 ()) pool;
  let stats = Net.Link_stats.create ~engine ~graph () in
  let act = ref 0 in
  act :=
    Sim.Engine.register engine (fun p _ _ ->
        let now = Sim.Engine.now engine in
        let phase = now mod 3 and odd = p land 1 = 1 in
        let sends = phase = 0 || (phase = 1 && odd)
        and receives = phase = 2 || (phase = 1 && not odd) in
        if record then
          for s = off.(p) to off.(p + 1) - 1 do
            if receives then Net.Link_stats.record_delivery stats ~slot:rev.(s);
            if sends then ignore (Net.Link_stats.record_send stats ~slot:s ~at:now ~deliver_at:now)
          done;
        Sim.Engine.post engine ~kind:!act ~owner:p ~at:(now + 1) 0 0);
  for p = 7 downto 0 do
    Sim.Engine.post engine ~kind:!act ~owner:p ~at:3 0 0
  done;
  (engine, stats)

let ring8_view stats =
  ( Net.Link_stats.per_edge_watermarks stats,
    List.init 16 (Net.Link_stats.edge_in_flight stats),
    (Net.Link_stats.total_sent stats, Net.Link_stats.total_delivered stats) )

(* Deferring an edge update stages six ints in the firing shard's
   buffer, and the merge runs the update in place: once the buffers
   have grown, ten rounds of parallel steps that record 480 updates
   allocate exactly what the same steps recording nothing allocate (the
   step's own batch costs). A one-domain pool runs every shard inline,
   so the count covers the whole step; a two-domain pool must give the
   same counts as the sequential loop too. *)
let link_stats_staging_allocation () =
  let sequential, reference = ring8_rounds ~record:true () in
  Sim.Engine.run sequential ~until:44;
  Exec.Pool.with_pool ~domains:1 (fun pool ->
      let staged, stats = ring8_rounds ~pool ~record:true () in
      let idle, _ = ring8_rounds ~pool ~record:false () in
      Sim.Engine.run staged ~until:14;
      Sim.Engine.run idle ~until:14;
      let words engine = Alloc.words (fun () -> Sim.Engine.run engine ~until:44) in
      let idle_words = words idle in
      check (Alcotest.float 0.) "10 rounds: deferred updates add no words to the steps" idle_words
        (words staged);
      check bool "staged = sequential" true (ring8_view stats = ring8_view reference));
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      let staged, stats = ring8_rounds ~pool ~record:true () in
      Sim.Engine.run staged ~until:44;
      check bool "on two domains, staged = sequential" true
        (ring8_view stats = ring8_view reference));
  check int "the interleaved step reaches 3 in flight" 3
    (Net.Link_stats.max_edge_watermark reference);
  check (Alcotest.list int) "the cross-shard edges' watermarks" [ 2; 3 ]
    (List.map
       (fun e -> List.assoc e (Net.Link_stats.per_edge_watermarks reference))
       [ (3, 4); (0, 7) ])

(* The per-kind watermarks of experiment E4, streamed from the trace,
   against the reference's per-(edge, kind) tables fed from the same
   trace; the world's own Link_stats must agree with the reference's
   all-kinds counts. *)
let kind_watermarks_match_reference () =
  let kinds = [| "ping"; "ack"; "request"; "fork" |] in
  let kind tag =
    let rec find i = if kinds.(i) = tag then i else find (i + 1) in
    find 0
  in
  List.iter
    (fun topology ->
      let graph = Cgraph.Topology.build topology in
      let oracle = Link_stats_ref.create ~graph ~kinds () in
      let recorder = Obs.Recorder.create () in
      let by_kind = Net.Kind_watermarks.attach recorder in
      Obs.Recorder.on_record recorder (fun r ->
          match r.kind with
          | Send { src; dst; tag; deliver_at } ->
              ignore
                (Link_stats_ref.record_send oracle ~slot:(Cgraph.Graph.dir_index graph src dst)
                   ~kind:(kind tag) ~at:r.time ~deliver_at)
          | Deliver { src; dst; tag } ->
              Link_stats_ref.record_delivery oracle ~slot:(Cgraph.Graph.dir_index graph src dst)
                ~kind:(kind tag)
          | Drop { src; dst; tag } ->
              Link_stats_ref.record_drop oracle ~slot:(Cgraph.Graph.dir_index graph src dst)
                ~kind:(kind tag)
          | _ -> ());
      let r =
        Harness.World.run ~recorder
          {
            Harness.Scenario.default with
            name = "e4";
            topology;
            delay = Net.Delay.Uniform (1, 8);
            detector = Harness.Scenario.noisy_oracle;
            workload = Harness.Scenario.contended_workload;
            crashes = Harness.Scenario.Random_crashes { count = 1; from_t = 2_000; to_t = 10_000 };
            horizon = 40_000;
            seed = 5L;
            check_every = Some 193;
          }
      in
      let name = Cgraph.Topology.name topology in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string int))
        (name ^ ": per kind")
        (Link_stats_ref.max_edge_watermark_by_kind oracle)
        (Net.Kind_watermarks.max_by_kind by_kind);
      check bool (name ^ ": some traffic was absorbed") true (Link_stats_ref.total_dropped oracle > 0);
      agree ~what:name graph r.link_stats oracle)
    Cgraph.Topology.[ Ring 5; Clique 6; Binary_tree 10; Random_gnp (14, 0.25, 7L) ]

let suite =
  [
    Alcotest.test_case "faults: schedule and query" `Quick faults_basics;
    Alcotest.test_case "faults: earliest crash wins" `Quick faults_earliest_wins;
    Alcotest.test_case "faults: crash notifications" `Quick faults_notifies;
    Alcotest.test_case "faults: rescheduled crash notifies once" `Quick
      faults_rescheduled_crash_notifies_once;
    Alcotest.test_case "faults: listeners fire in registration order" `Quick
      faults_listeners_fire_in_registration_order;
    Alcotest.test_case "delay: bounds per model" `Quick delay_bounds;
    Alcotest.test_case "delay: partial synchrony" `Quick delay_partial_synchrony;
    Alcotest.test_case "network: delivers" `Quick network_delivers;
    Alcotest.test_case "network: FIFO per channel" `Quick network_fifo_per_channel;
    Seeded.to_alcotest network_fifo_property;
    Alcotest.test_case "network: rejects non-neighbors" `Quick network_rejects_non_neighbors;
    Alcotest.test_case "network: absorbs sends to crashed" `Quick network_drops_to_crashed;
    Alcotest.test_case "network: crashed source is silent" `Quick network_crashed_source_sends_nothing;
    Alcotest.test_case "network: in-flight survives sender crash" `Quick
      network_in_flight_messages_survive_sender_crash;
    Alcotest.test_case "link_stats: watermarks" `Quick link_stats_watermarks;
    Alcotest.test_case "link_stats: last send" `Quick link_stats_last_send;
    Alcotest.test_case "link_stats: FIFO floor per slot" `Quick link_stats_fifo_floor;
    Alcotest.test_case "delay: sampling allocates nothing" `Quick delay_sample_allocates_nothing;
    Alcotest.test_case "network: a message allocates nothing" `Quick
      network_message_allocation;
    Alcotest.test_case "faults: a run past a superseded crash keeps posts legal" `Quick
      faults_rescheduled_crash_keeps_posts_legal;
    Alcotest.test_case "faults: is_crashed follows the earliest crash" `Quick
      faults_is_crashed_tracks_the_earliest_crash;
    Alcotest.test_case "network: slot form carries the channel" `Quick network_slot_form;
    Alcotest.test_case "link_stats: drops and derived deliveries" `Quick link_stats_drops;
    Alcotest.test_case "link_stats: matches the reference" `Quick link_stats_matches_reference;
    Alcotest.test_case "kind_watermarks: match the reference on E4 topologies" `Quick
      kind_watermarks_match_reference;
  ]

(* Link_stats' deferred edge updates on a real pool, in the [parallel]
   suite (test/main.ml). *)
let parallel =
  [
    Alcotest.test_case "link_stats: staged under sharding matches the reference" `Quick
      link_stats_staged_matches_reference;
    Alcotest.test_case "link_stats: staging allocates nothing" `Quick
      link_stats_staging_allocation;
  ]
