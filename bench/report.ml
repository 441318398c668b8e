(* Deterministic machine-readable benchmark reports.

   A report is a flat list of (key, value) metrics rendered as a
   one-metric-per-line JSON object, so the committed baseline
   (BENCH_scale.json) diffs line-by-line and the comparison logic needs
   no JSON library. Keys follow a naming convention that doubles as the
   comparison policy:

   - [*_seconds] / [*_per_sec] — wall-clock derived, machine-dependent:
     compared advisorily (a warning above the tolerance, never a
     failure);
   - [live_*] — whole-heap measurements, sensitive to what other domains
     retain: advisory as well;
   - [*_words] — allocation counts (words from [Gc.minor_words] plus
     major minus promoted, or [Obj.reachable_words]): deterministic for
     a fixed code path, so exact match required. An intended change
     means regenerating the baseline — that is the allocation-regression
     gate;
   - everything else (event/state/case counts, names) — part of the
     determinism contract: exact match required. *)

type value = Int of int | Float of float | Str of string

type t = { mutable entries : (string * value) list (* reversed *) }

let create () = { entries = [] }

let add t key value =
  if List.mem_assoc key (t.entries) then
    invalid_arg (Printf.sprintf "Report.add: duplicate key %s" key);
  t.entries <- (key, value) :: t.entries

let int t key v = add t key (Int v)
let float t key v = add t key (Float v)
let str t key v = add t key (Str v)

let render_value = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Str s -> Printf.sprintf "%S" s

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  let entries = List.rev t.entries in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf (Printf.sprintf "  %S: %s" k (render_value v));
      if i < List.length entries - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    entries;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

(* ------------------------- parsing ------------------------- *)

(* Parses exactly the format [to_string] emits: one ["key": value] pair
   per line. Unparseable lines (braces) are skipped. *)
let parse_line line =
  let line = String.trim line in
  if String.length line < 2 || line.[0] <> '"' then None
  else
    match String.index_from_opt line 1 '"' with
    | None -> None
    | Some close -> (
        let key = String.sub line 1 (close - 1) in
        match String.index_from_opt line close ':' with
        | None -> None
        | Some colon ->
            let raw = String.sub line (colon + 1) (String.length line - colon - 1) in
            let raw = String.trim raw in
            let raw =
              if String.length raw > 0 && raw.[String.length raw - 1] = ',' then
                String.sub raw 0 (String.length raw - 1)
              else raw
            in
            if String.length raw >= 2 && raw.[0] = '"' then
              Some (key, Str (String.sub raw 1 (String.length raw - 2)))
            else if String.contains raw '.' || String.contains raw 'e' then
              Option.map (fun f -> (key, Float f)) (float_of_string_opt raw)
            else Option.map (fun i -> (key, Int i)) (int_of_string_opt raw))

let parse contents =
  String.split_on_char '\n' contents |> List.filter_map parse_line

let read path =
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse contents

(* ------------------------ comparison ----------------------- *)

type verdict = { failures : string list; warnings : string list }

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let starts_with ~prefix s =
  let lp = String.length prefix and l = String.length s in
  l >= lp && String.sub s 0 lp = prefix

let advisory key =
  let metric =
    match String.rindex_opt key '.' with
    | Some i -> String.sub key (i + 1) (String.length key - i - 1)
    | None -> key
  in
  ends_with ~suffix:"_seconds" key
  || ends_with ~suffix:"_per_sec" key
  || starts_with ~prefix:"live_" metric
  || starts_with ~prefix:"ns_per_" metric

let as_float = function Int i -> Some (float_of_int i) | Float f -> Some f | Str _ -> None

(* Advisory keys warn when worse than the baseline by more than this
   fraction. *)
let tolerance = 0.25

(* Compare [current] against [baseline]. Advisory keys warn when worse
   by more than [tolerance]; all other keys must match exactly. Keys
   present on one side only are warnings (new metrics) or failures (lost
   metrics). *)
let compare_metrics ~baseline ~current =
  let failures = ref [] and warnings = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  List.iter
    (fun (key, base) ->
      match List.assoc_opt key current with
      | None -> fail "%s: present in baseline but missing from current report" key
      | Some cur -> (
          if advisory key then
            match (as_float base, as_float cur) with
            | Some b, Some c when b > 0.0 ->
                (* For throughput (_per_sec) lower is worse; for
                   durations and heap sizes higher is worse. *)
                let worse =
                  if ends_with ~suffix:"_per_sec" key then (b -. c) /. b else (c -. b) /. b
                in
                if worse > tolerance then
                  warn "%s: %s -> %s (%.0f%% worse than baseline; advisory)" key
                    (render_value base) (render_value cur) (100.0 *. worse)
            | _ -> ()
          else if base <> cur then
            fail
              "%s: %s -> %s (deterministic metric changed; regenerate the baseline if \
               this is intended)"
              key (render_value base) (render_value cur)))
    baseline;
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key baseline) then
        warn "%s: new metric not in baseline (regenerate to start tracking it)" key)
    current;
  { failures = List.rev !failures; warnings = List.rev !warnings }
