(* Tests for the observability subsystem: recorder enablement,
   JSONL export, trace diffing, the metrics registry, and the end-to-end
   determinism guarantee (same scenario + seed => byte-identical trace
   at any domain count). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* --------------------------- Recorder ------------------------------ *)

let recorder_disabled_drops_everything () =
  let r = Obs.Recorder.create () in
  check bool "tracing off" false (Obs.Recorder.tracing r);
  Obs.Recorder.mark r ~time:0 ~subject:0 ~tag:"x" "";
  Obs.Recorder.sched r ~time:0 ~id:0 ~at:5;
  check int "nothing retained" 0 (Obs.Recorder.count r)

let recorder_full_sink_sees_both_levels () =
  let r = Obs.Recorder.create () in
  let full = ref 0 in
  Obs.Recorder.on_record r (fun _ -> incr full);
  check bool "full tracing on" true (Obs.Recorder.tracing r);
  Obs.Recorder.sched r ~time:2 ~id:1 ~at:9;
  Obs.Recorder.phase r ~time:2 ~pid:1 ~phase:"eating";
  check int "full sink saw structural + light" 2 !full

let recorder_collecting_retains_in_order () =
  let r = Obs.Recorder.collecting () in
  Obs.Recorder.sched r ~time:0 ~id:0 ~at:3;
  Obs.Recorder.fire r ~time:3 ~id:0;
  Obs.Recorder.crash r ~time:3 ~pid:2;
  let rs = Obs.Recorder.records r in
  check int "all retained" 3 (List.length rs);
  check (Alcotest.list int) "seq is dense and ordered" [ 0; 1; 2 ]
    (List.map (fun (x : Obs.Record.t) -> x.seq) rs);
  check (Alcotest.list int) "times preserved" [ 0; 3; 3 ]
    (List.map (fun (x : Obs.Record.t) -> x.time) rs)

let recorder_sinks_fire_in_subscription_order () =
  let r = Obs.Recorder.create () in
  let order = ref [] in
  Obs.Recorder.on_record r (fun _ -> order := "first" :: !order);
  Obs.Recorder.on_record r (fun _ -> order := "second" :: !order);
  Obs.Recorder.crash r ~time:0 ~pid:0;
  check (Alcotest.list string) "subscription order" [ "first"; "second" ] (List.rev !order)

(* ----------------------------- JSONL ------------------------------- *)

let jsonl_fixed_field_order () =
  let line =
    Obs.Jsonl.to_line { Obs.Record.seq = 4; time = 17; kind = Obs.Record.Sched { id = 2; at = 30 } }
  in
  check string "sched line" {|{"seq":4,"t":17,"k":"sched","id":2,"at":30}|} line;
  let line =
    Obs.Jsonl.to_line
      {
        Obs.Record.seq = 5;
        time = 18;
        kind = Obs.Record.Send { src = 0; dst = 3; tag = "ping"; deliver_at = 25 };
      }
  in
  check string "send line" {|{"seq":5,"t":18,"k":"send","src":0,"dst":3,"tag":"ping","at":25}|} line

let jsonl_escapes_strings () =
  let line =
    Obs.Jsonl.to_line
      {
        Obs.Record.seq = 0;
        time = 0;
        kind = Obs.Record.Mark { subject = 1; tag = "q\"uote"; detail = "a\\b\nc" };
      }
  in
  check bool "stays one line" true (String.index_opt line '\n' = None);
  check string "escaped payload"
    {|{"seq":0,"t":0,"k":"mark","pid":1,"tag":"q\"uote","detail":"a\\b\nc"}|} line

let jsonl_field_int () =
  let line = {|{"seq":12,"t":340,"k":"fire","id":7}|} in
  check (Alcotest.option int) "t" (Some 340) (Obs.Jsonl.field_int line "t");
  check (Alcotest.option int) "seq" (Some 12) (Obs.Jsonl.field_int line "seq");
  check (Alcotest.option int) "missing" None (Obs.Jsonl.field_int line "at")

let jsonl_field_string () =
  (* The scanner must invert [append]'s escaping — round-trip a Mark
     with every escaped character in play. *)
  let line =
    Obs.Jsonl.to_line
      {
        Obs.Record.seq = 0;
        time = 0;
        kind = Obs.Record.Mark { subject = -1; tag = "mcheck.step"; detail = "a\"b\\c\nd" };
      }
  in
  check (Alcotest.option string) "tag" (Some "mcheck.step") (Obs.Jsonl.field_string line "tag");
  check (Alcotest.option string) "detail unescaped" (Some "a\"b\\c\nd")
    (Obs.Jsonl.field_string line "detail");
  check (Alcotest.option string) "missing" None (Obs.Jsonl.field_string line "phase");
  (* An int field is not a string field. *)
  check (Alcotest.option string) "wrong type" None (Obs.Jsonl.field_string line "seq")

(* ----------------------------- Diff -------------------------------- *)

let diff_identical_and_headers () =
  let a = "# header one\n{\"seq\":0}\n{\"seq\":1}\n" in
  let b = "# a different header\n\n{\"seq\":0}\n{\"seq\":1}\n" in
  check bool "headers and blanks ignored" true
    (Obs.Diff.identical (Obs.Diff.lines a) (Obs.Diff.lines b));
  check bool "no divergence" true
    (Obs.Diff.first_divergence (Obs.Diff.lines a) (Obs.Diff.lines b) = None)

let diff_pinpoints_first_divergence () =
  let a = [ "e0"; "e1"; "e2"; "e3" ] and b = [ "e0"; "e1"; "x2"; "e3" ] in
  match Obs.Diff.first_divergence ~context:1 a b with
  | None -> Alcotest.fail "expected a divergence"
  | Some d ->
      check int "index" 2 d.index;
      check (Alcotest.option string) "a" (Some "e2") d.a;
      check (Alcotest.option string) "b" (Some "x2") d.b;
      check (Alcotest.list string) "context tail" [ "e1" ] d.context

let diff_prefix_divergence_at_end () =
  let a = [ "e0"; "e1" ] and b = [ "e0"; "e1"; "e2" ] in
  match Obs.Diff.first_divergence a b with
  | None -> Alcotest.fail "strict prefix must diverge"
  | Some d ->
      check int "index at shorter end" 2 d.index;
      check (Alcotest.option string) "a ended" None d.a;
      check (Alcotest.option string) "b continues" (Some "e2") d.b

(* ---------------------------- Metrics ------------------------------ *)

let metrics_registry () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a.count" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check int "counter accumulates" 5 (Obs.Metrics.counter_value c);
  (* get-or-create: the same name yields the same cell. *)
  Obs.Metrics.incr (Obs.Metrics.counter m "a.count");
  check int "same cell by name" 6 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge m "b.level" in
  Obs.Metrics.set g 42;
  Obs.Metrics.set g 17;
  check int "gauge holds last" 17 (Obs.Metrics.gauge_value g);
  let h = Obs.Metrics.histogram m "c.dist" in
  List.iter (Obs.Metrics.observe h) [ 5; 1; 9 ];
  (match Obs.Metrics.find m "c.dist" with
  | Some (Obs.Metrics.Dist d) ->
      check int "count" 3 d.count;
      check int "sum" 15 d.sum;
      check int "min" 1 d.min;
      check int "max" 9 d.max
  | _ -> Alcotest.fail "expected a Dist");
  check (Alcotest.list string) "dump sorted by name" [ "a.count"; "b.level"; "c.dist" ]
    (List.map fst (Obs.Metrics.dump m));
  check bool "kind mismatch rejected" true
    (match Obs.Metrics.gauge m "a.count" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------ End-to-end runs -------------------------- *)

let scenario seed =
  {
    Harness.Scenario.default with
    name = "obs-test";
    topology = Cgraph.Topology.Ring 6;
    seed;
    horizon = 4_000;
    crashes = Harness.Scenario.Random_crashes { count = 1; from_t = 400; to_t = 2_000 };
  }

let capture_jsonl seed =
  let recorder = Obs.Recorder.collecting () in
  let (_ : Harness.World.report) = Harness.World.run ~recorder (scenario seed) in
  Obs.Jsonl.of_records (Obs.Recorder.records recorder)

let trace_deterministic_across_domains () =
  let capture_all domains =
    Exec.Pool.with_pool ~domains (fun pool ->
        Exec.Pool.init pool 3 (fun k -> capture_jsonl (Int64.of_int (k + 1))))
  in
  let seq = capture_all 1 and par = capture_all 2 in
  check bool "non-trivial traces" true (String.length seq.(0) > 1_000);
  Array.iteri
    (fun k s ->
      if s <> par.(k) then Alcotest.failf "trace for seed %d differs between domain counts" (k + 1))
    seq

let tracediff_pinpoints_seed_divergence () =
  let a = Obs.Diff.lines (capture_jsonl 1L) and b = Obs.Diff.lines (capture_jsonl 2L) in
  match Obs.Diff.first_divergence a b with
  | None -> Alcotest.fail "different seeds must diverge"
  | Some d ->
      (* The divergent line is a real event with a parsable time, not a
         header: seed metadata lives in '#' lines the differ ignores. *)
      let line = match d.a with Some l -> l | None -> Option.get d.b in
      check bool "divergent line has a time field" true (Obs.Jsonl.field_int line "t" <> None)

let report_carries_metrics () =
  let r = Harness.World.run (scenario 5L) in
  let count name =
    match Obs.Metrics.find r.metrics name with
    | Some (Obs.Metrics.Count c) -> c
    | _ -> Alcotest.failf "missing counter %s" name
  in
  check bool "dining traffic counted" true (count "net.sent" > 0);
  check int "eats counter matches report" r.total_eats (count "daemon.eats");
  check bool "engine gauge set" true
    (match Obs.Metrics.find r.metrics "engine.events" with
    | Some (Obs.Metrics.Level n) -> n = r.events_processed
    | _ -> false)

let suite =
  [
    Alcotest.test_case "recorder: disabled drops everything" `Quick
      recorder_disabled_drops_everything;
    Alcotest.test_case "recorder: full sink sees both levels" `Quick
      recorder_full_sink_sees_both_levels;
    Alcotest.test_case "recorder: collecting retains in order" `Quick
      recorder_collecting_retains_in_order;
    Alcotest.test_case "recorder: sinks fire in subscription order" `Quick
      recorder_sinks_fire_in_subscription_order;
    Alcotest.test_case "jsonl: fixed field order" `Quick jsonl_fixed_field_order;
    Alcotest.test_case "jsonl: string escaping" `Quick jsonl_escapes_strings;
    Alcotest.test_case "jsonl: field_int scanner" `Quick jsonl_field_int;
    Alcotest.test_case "jsonl: field_string scanner" `Quick jsonl_field_string;
    Alcotest.test_case "diff: identical modulo headers" `Quick diff_identical_and_headers;
    Alcotest.test_case "diff: pinpoints first divergence" `Quick diff_pinpoints_first_divergence;
    Alcotest.test_case "diff: strict prefix diverges at end" `Quick diff_prefix_divergence_at_end;
    Alcotest.test_case "metrics: registry semantics" `Quick metrics_registry;
    Alcotest.test_case "trace: byte-identical across domain counts" `Quick
      trace_deterministic_across_domains;
    Alcotest.test_case "tracediff: different seeds diverge at a real event" `Quick
      tracediff_pinpoints_seed_divergence;
    Alcotest.test_case "report: metrics registry populated" `Quick report_carries_metrics;
  ]
