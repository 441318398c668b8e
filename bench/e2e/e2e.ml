(* End-to-end benchmark of the simulator: four workloads, end-to-end
   metrics with tracing off, per-layer metrics from a separate traced run.
   See README.md in this directory for the metrics, workloads and usage.

   Every repetition runs in a fresh child process of this executable, one
   at a time: Gc counters and the heap high-water mark are per process. *)

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--spans FILE] [--json FILE]\n\
    \       e2e.exe --compare BASE.json NEW.json\n\
    \       e2e.exe --smoke [--expect FILE]\n\
     Workloads: ring-5e4, heartbeat-grid, contended-clique, verify (all four when --workload is omitted).\n\
     --seconds bounds each workload's repetitions (default 25); --trace 1 runs the traced pass instead\n\
     and prints per-layer metrics; --spans writes the traced spans as JSON lines; --json writes the set\n\
     (medians, quartiles, sample counts) for --compare.";
  exit 2

let e2e_units =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("events_per_s", "events/s");
    ("step_ms_p50", "ms");
    ("step_ms_p90", "ms");
    ("alloc_words_per_event", "words/event");
    ("live_bytes_per_proc", "B");
    ("peak_heap_mb", "MB");
  ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile l 0.5

(* First and third quartiles as Python's statistics.quantiles(n=4)
   computes them (the default exclusive method). *)
let quartiles l =
  let a = sorted l in
  let n = Array.length a in
  if n < 2 then (percentile l 0.5, percentile l 0.5)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

type stat = { value : float; q1 : float; q3 : float; n : int }

let over l =
  let q1, q3 = quartiles l in
  { value = median l; q1; q3; n = List.length l }

let summarise (reps : Ops.rep list) =
  let per f = List.map f reps in
  (* Samples pooled over repetitions; quartiles of the per-repetition
     values. *)
  let pooled samples stat =
    let q1, q3 = quartiles (per (fun r -> stat (samples r))) in
    let all = List.concat_map samples reps in
    { value = stat all; q1; q3; n = List.length all }
  in
  let steps (r : Ops.rep) = r.steps_ms in
  [
    ("wall_s", over (per (fun r -> r.wall_s)));
    ("setup_s", pooled (fun r -> r.setup_s) median);
    ("events_per_s", over (per (fun r -> median r.events_per_s)));
    ("step_ms_p50", pooled steps median);
    ("step_ms_p90", pooled steps (fun l -> percentile l 0.90));
    ("alloc_words_per_event", over (per (fun r -> median r.alloc_per_event)));
    ("live_bytes_per_proc", over (per (fun r -> median r.live_bytes_per_proc)));
    ("peak_heap_mb", over (per (fun r -> r.peak_heap_mb)));
  ]

(* ------------------------------------------------------------------ *)
(* Child processes                                                      *)

(* The running child, killed with us so that no repetition outlives the
   benchmark; a traced child's runtime_events ring file goes with it. *)
let child = ref None

let () =
  let stop signal =
    Option.iter
      (fun pid ->
        (try
           Unix.kill pid Sys.sigkill;
           ignore (Unix.waitpid [] pid)
         with Unix.Unix_error _ -> ());
        try Sys.remove (Printf.sprintf "%d.events" pid) with Sys_error _ -> ())
      !child;
    exit (128 + signal)
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop 15));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop 2))

let run_child args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  child := Some (Unix.process_in_pid ic);
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if line <> "" then last := line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  child := None;
  match status with
  | Unix.WEXITED 0 -> ( try Some (Json.parse !last) with Json.Parse_error _ -> None)
  | _ -> None

type result = { attempted : int; failed : int; metrics : (string * stat) list }

let elapsed_since t0 = Int64.to_float (Int64.sub (Spans.now ()) t0) *. 1e-9

(* Repetitions of one workload until [seconds] would be exceeded. *)
let measure ~name ~seed ~seconds =
  let fresh_cases = (Option.get (Ops.plan ~smoke:false ~seed name)).fresh_cases in
  let t0 = Spans.now () in
  let reps = ref [] and spawned = ref 0 and attempted = ref 0 and failed = ref 0 in
  let continue () =
    let elapsed = elapsed_since t0 in
    if !spawned = 0 then true
    else if !reps = [] then elapsed < seconds
    else elapsed +. (elapsed /. float_of_int !spawned) <= seconds
  in
  while continue () do
    let rep = !spawned in
    incr spawned;
    match run_child [ "--child"; name; "--seed"; string_of_int seed; "--rep"; string_of_int rep ] with
    | None ->
        Printf.eprintf "FAIL %s: repetition %d exited abnormally\n%!" name rep;
        incr attempted;
        incr failed
    | Some v ->
        let r = Ops.rep_of_json v in
        attempted := !attempted + r.attempted;
        failed := !failed + r.failed;
        (match !reps with
        | first :: _ when (not fresh_cases) && (first : Ops.rep).digest <> r.digest ->
            Printf.eprintf "FAIL %s: repetition %d digest differs\n  %s\n  %s\n%!" name rep first.digest r.digest;
            incr failed
        | _ -> ());
        reps := !reps @ [ r ]
  done;
  if !reps = [] then None
  else begin
    let kernel = median (List.concat_map (fun (r : Ops.rep) -> r.kernel_s) !reps) in
    Printf.printf "%-17s host speed: calibration loop %.3f ms (reference %.3f ms), times scaled by %.3f\n" name
      (kernel *. 1e3) (Ops.kernel_ref_s *. 1e3) (Ops.kernel_ref_s /. kernel);
    Some { attempted = !attempted; failed = !failed; metrics = summarise (List.map Ops.at_reference_speed !reps) }
  end

let print_result name r =
  List.iter
    (fun (m, s) ->
      let unit = Option.value ~default:"" (List.assoc_opt m e2e_units) in
      Printf.printf "%-17s %-22s %14.6g %-12s n=%-6d q1=%.6g q3=%.6g\n" name m s.value unit s.n s.q1 s.q3)
    r.metrics;
  Printf.printf "%-17s %-22s %14d\n%-17s %-22s %14d\n%!" name "ops" r.attempted name "ops_failed" r.failed

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)

let print_span_tree ~world spans =
  let rows = Spans.tree spans in
  Printf.printf "  %-34s %8s %11s %11s %8s\n" "span" "count" "total s" "self s" "%World";
  let rec go parent =
    let depth = List.length parent in
    List.filter
      (fun (r : Spans.row) -> List.length r.path = depth + 1 && List.filteri (fun i _ -> i < depth) r.path = parent)
      rows
    |> List.sort (fun (a : Spans.row) (b : Spans.row) -> compare a.first b.first)
    |> List.iter (fun (r : Spans.row) ->
           Printf.printf "  %-34s %8d %11.4f %11.4f %7.1f%%\n"
             (String.make (2 * depth) ' ' ^ List.nth r.path depth)
             r.count r.total r.self (100. *. r.total /. world);
           go r.path)
  in
  go []

let trace ~name ~seed ~spans_out =
  match run_child [ "--child"; name; "--seed"; string_of_int seed ] with
  | None -> None
  | Some u -> (
      let u = Ops.rep_of_json u in
      match run_child [ "--child"; name; "--seed"; string_of_int seed; "--traced" ] with
      | None -> None
      | Some t ->
          let t = Ops.traced_of_json t in
          let mismatch = t.t_digest <> u.digest in
          if mismatch then Printf.eprintf "FAIL %s: traced digest differs\n  %s\n  %s\n%!" name u.digest t.t_digest;
          let overhead = t.t_world_s -. u.world_s in
          let layers = t.layers @ [ ("harness.step_ms_p99", percentile u.steps_ms 0.99); ("trace.overhead_s", overhead) ] in
          Printf.printf "== %s (seed %d): traced World %.4f s, untraced %.4f s, tracing overhead %.4f s\n" name seed
            t.t_world_s u.world_s overhead;
          Printf.printf "  %-34s %14s %-12s %8s\n" "layer metric" "value" "unit" "%World";
          List.iter
            (fun (m, v) ->
              let unit = List.assoc m Ops.layer_units in
              let share = if unit = "s" then Printf.sprintf "%7.1f%%" (100. *. v /. t.t_world_s) else "" in
              Printf.printf "  %-34s %14.6g %-12s %8s\n" m v unit share)
            layers;
          print_span_tree ~world:t.t_world_s t.spans;
          Option.iter
            (fun oc -> List.iter (fun s -> output_string oc (Json.to_string (Spans.to_json ~workload:name s) ^ "\n")) t.spans)
            spans_out;
          let stat v = { value = v; q1 = v; q3 = v; n = 1 } in
          Some
            {
              attempted = u.attempted + t.t_attempted;
              failed = u.failed + t.t_failed + (if mismatch then 1 else 0);
              metrics = List.map (fun (m, v) -> (m, stat v)) layers;
            })

(* ------------------------------------------------------------------ *)
(* Contract file, sets and comparison                                   *)

let stat_to_json unit s =
  Json.Obj
    [
      ("value", Json.Num s.value);
      ("unit", Json.Str unit);
      ("q1", Json.Num s.q1);
      ("q3", Json.Num s.q3);
      ("n", Json.Num (float_of_int s.n));
    ]

let units_of trace = if trace then Ops.layer_units else e2e_units

let result_line ~trace r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.failed = 0));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m, s) -> (m, Json.Obj [ ("value", Json.Num s.value); ("unit", Json.Str (List.assoc m (units_of trace))) ]))
                r.metrics) );
       ])

let set_to_json ~seed ~seconds ~trace results =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ( "workloads",
        Json.Obj
          (List.map
             (fun (name, r) ->
               ( name,
                 Json.Obj
                   [
                     ("attempted", Json.Num (float_of_int r.attempted));
                     ("failed", Json.Num (float_of_int r.failed));
                     ( "metrics",
                       Json.Obj (List.map (fun (m, s) -> (m, stat_to_json (List.assoc m (units_of trace)) s)) r.metrics) );
                   ] ))
             results) );
    ]

(* The metric names and units here must be the ones BENCHMARK.json
   promises; refuse to run when they drift apart. *)
let check_contract path =
  if Sys.file_exists path then begin
    let c = Json.read_file path in
    let pairs key =
      List.map
        (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
        (Json.to_list (Json.member key c))
    in
    let names = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" c)) in
    if pairs "end_to_end" <> e2e_units || pairs "per_layer" <> Ops.layer_units || names <> Ops.names then begin
      Printf.eprintf "%s lists other workloads or metrics than this benchmark reports\n" path;
      exit 2
    end
  end

let compare_sets base_file new_file =
  let contract = Json.read_file "BENCHMARK.json" in
  let limits =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          (Json.to_str (Json.member "better" m), Json.to_float (Json.member "bound" m)) ))
      (Json.to_list (Json.member "end_to_end" contract))
  in
  let base = Json.member "workloads" (Json.read_file base_file) in
  let next = Json.member "workloads" (Json.read_file new_file) in
  let worse = ref false in
  Printf.printf "%-17s %-22s %12s %23s %12s %23s %8s  %s\n" "workload" "metric" "base" "base q1..q3" "new"
    "new q1..q3" "change" "verdict";
  List.iter
    (fun (w, b) ->
      let n = Json.member w next in
      List.iter
        (fun (m, (better, bound)) ->
          let get set k = Json.to_float (Json.member k (Json.member m (Json.member "metrics" set))) in
          let bm = get b "value" and nm = get n "value" in
          let spread set = (get set "q3" -. get set "q1") /. Float.abs (get set "value") in
          let change = (nm -. bm) /. Float.abs bm in
          let worse_by = if better = "lower" then change else -.change in
          let verdict =
            if Float.max (spread b) (spread n) > bound then "unresolved"
            else if worse_by > bound then "worse"
            else if worse_by < -.bound then "better"
            else "same"
          in
          if verdict = "worse" then worse := true;
          Printf.printf "%-17s %-22s %12.6g %11.6g..%-10.6g %12.6g %11.6g..%-10.6g %+7.1f%%  %s\n" w m bm
            (get b "q1") (get b "q3") nm (get n "q1") (get n "q3") (100. *. change) verdict)
        limits;
      let bf = Json.to_int (Json.member "failed" b) and nf = Json.to_int (Json.member "failed" n) in
      Printf.printf "%-17s %-22s %12d %23s %12d %23s %8s  %s\n" w "ops_failed" bf "" nf "" ""
        (if nf > bf then "worse" else "same");
      if nf > bf then worse := true)
    (Json.to_assoc base);
  exit (if !worse then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Smoke check: small sizes, deterministic columns only                 *)

let smoke ~seed ~expect =
  let failed = ref 0 in
  let out =
    String.concat ""
      (List.map
         (fun name ->
           let r = Ops.run_rep (Option.get (Ops.plan ~smoke:true ~seed name)) in
           failed := !failed + r.failed;
           Printf.sprintf "%s ops=%d ops_failed=%d %s\n" name r.attempted r.failed r.digest)
         Ops.names)
  in
  print_string out;
  let mismatch =
    match expect with
    | None -> false
    | Some path ->
        let expected = In_channel.with_open_bin path In_channel.input_all in
        if expected <> out then Printf.eprintf "smoke output differs from %s, which expects:\n%s%!" path expected;
        expected <> out
  in
  exit (if !failed = 0 && not mismatch then 0 else 1)

(* ------------------------------------------------------------------ *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  traced : bool;
  spans : string option;
  json : string option;
  child : string option;
  rep : int;
}

let () =
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse o = function
    | [] -> o
    | "--workload" :: v :: rest -> parse { o with workload = Some v } rest
    | "--seed" :: v :: rest -> parse { o with seed = int_arg v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with Some s when s > 0. -> parse { o with seconds = s } rest | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with traced = v = "1" } rest
    | "--spans" :: v :: rest -> parse { o with spans = Some v } rest
    | "--json" :: v :: rest -> parse { o with json = Some v } rest
    | "--child" :: v :: rest -> parse { o with child = Some v } rest
    | "--traced" :: rest -> parse { o with traced = true } rest
    | "--rep" :: v :: rest -> parse { o with rep = int_arg v } rest
    | _ -> usage ()
  in
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--compare"; a; b ] -> compare_sets a b
  | [ "--smoke" ] -> smoke ~seed:42 ~expect:None
  | [ "--smoke"; "--expect"; f ] -> smoke ~seed:42 ~expect:(Some f)
  | _ -> (
      let o =
        parse
          { workload = None; seed = 42; seconds = 25.; traced = false; spans = None; json = None; child = None; rep = 0 }
          args
      in
      let plan name = match Ops.plan ~rep:o.rep ~smoke:false ~seed:o.seed name with Some p -> p | None -> usage () in
      match o.child with
      | Some name ->
          let p = plan name in
          print_endline
            (Json.to_string (if o.traced then Ops.traced_to_json (Ops.run_traced p) else Ops.rep_to_json (Ops.run_rep p)))
      | None ->
          check_contract "BENCHMARK.json";
          let names = match o.workload with Some n -> ignore (plan n); [ n ] | None -> Ops.names in
          let spans_out = Option.map open_out o.spans in
          let results =
            List.map
              (fun name ->
                let r =
                  if o.traced then trace ~name ~seed:o.seed ~spans_out
                  else
                    let r = measure ~name ~seed:o.seed ~seconds:o.seconds in
                    Option.iter (print_result name) r;
                    r
                in
                match r with
                | Some r -> (name, r)
                | None ->
                    Printf.eprintf "%s: no repetition completed\n" name;
                    exit 1)
              names
          in
          Option.iter close_out spans_out;
          Option.iter
            (fun path ->
              let oc = open_out path in
              output_string oc (Json.to_string (set_to_json ~seed:o.seed ~seconds:o.seconds ~trace:o.traced results));
              output_char oc '\n';
              close_out oc)
            o.json;
          match results with
          | [ (_, r) ] -> print_endline (result_line ~trace:o.traced r)
          | _ -> if List.exists (fun (_, r) -> r.failed > 0) results then exit 1)
