(* Text codec for every scenario component. Encodings reuse the CLI's
   [Topology.parse] syntax where one exists and mirror it elsewhere;
   floats are printed with %.17g so decode (float_of_string) is exact. *)

exception Parse of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let encode_topology (t : Cgraph.Topology.spec) =
  match t with
  | Cgraph.Topology.Ring n -> Printf.sprintf "ring:%d" n
  | Cgraph.Topology.Path n -> Printf.sprintf "path:%d" n
  | Cgraph.Topology.Clique n -> Printf.sprintf "clique:%d" n
  | Cgraph.Topology.Star n -> Printf.sprintf "star:%d" n
  | Cgraph.Topology.Grid (r, c) -> Printf.sprintf "grid:%dx%d" r c
  | Cgraph.Topology.Torus (r, c) -> Printf.sprintf "torus:%dx%d" r c
  | Cgraph.Topology.Binary_tree n -> Printf.sprintf "tree:%d" n
  | Cgraph.Topology.Hypercube d -> Printf.sprintf "cube:%d" d
  | Cgraph.Topology.Wheel n -> Printf.sprintf "wheel:%d" n
  | Cgraph.Topology.Bipartite (a, b) -> Printf.sprintf "bipartite:%dx%d" a b
  | Cgraph.Topology.Random_gnp (n, p, seed) -> Printf.sprintf "gnp:%d:%.17g:%Ld" n p seed
  | Cgraph.Topology.Scale_free (n, m, seed) -> Printf.sprintf "sf:%d:%d:%Ld" n m seed

let decode_topology s =
  match Cgraph.Topology.parse s with Ok t -> t | Error e -> fail "topology: %s" e

let int_field what s =
  match int_of_string_opt s with Some n -> n | None -> fail "%s: not an integer %S" what s

let float_field what s =
  match float_of_string_opt s with Some f -> f | None -> fail "%s: not a float %S" what s

let int64_field what s =
  match Int64.of_string_opt s with Some n -> n | None -> fail "%s: not an int64 %S" what s

let encode_delay (d : Net.Delay.t) =
  match d with
  | Net.Delay.Fixed d -> Printf.sprintf "fixed:%d" d
  | Net.Delay.Uniform (lo, hi) -> Printf.sprintf "uniform:%d:%d" lo hi
  | Net.Delay.Exponential (mean, cap) -> Printf.sprintf "exp:%.17g:%d" mean cap
  | Net.Delay.Partial_synchrony { gst; pre = plo, phi; post = qlo, qhi } ->
      Printf.sprintf "psync:%d:%d:%d:%d:%d" gst plo phi qlo qhi

let decode_delay s : Net.Delay.t =
  match String.split_on_char ':' s with
  | [ "fixed"; d ] -> Net.Delay.Fixed (int_field "delay" d)
  | [ "uniform"; lo; hi ] -> Net.Delay.Uniform (int_field "delay" lo, int_field "delay" hi)
  | [ "exp"; mean; cap ] ->
      Net.Delay.Exponential (float_field "delay" mean, int_field "delay" cap)
  | [ "psync"; gst; plo; phi; qlo; qhi ] ->
      Net.Delay.Partial_synchrony
        {
          gst = int_field "delay" gst;
          pre = (int_field "delay" plo, int_field "delay" phi);
          post = (int_field "delay" qlo, int_field "delay" qhi);
        }
  | _ -> fail "delay: cannot parse %S" s

let encode_detector (d : Harness.Scenario.detector_kind) =
  match d with
  | Harness.Scenario.Never -> "never"
  | Harness.Scenario.Perfect -> "perfect"
  | Harness.Scenario.Oracle { detection_delay; fp_per_edge; fp_window; fp_max_len } ->
      Printf.sprintf "oracle:%d:%d:%d:%d" detection_delay fp_per_edge fp_window fp_max_len
  | Harness.Scenario.Heartbeat { period; initial_timeout; bump } ->
      Printf.sprintf "heartbeat:%d:%d:%d" period initial_timeout bump
  | Harness.Scenario.Unreliable { period; duration } ->
      Printf.sprintf "unreliable:%d:%d" period duration

let decode_detector s : Harness.Scenario.detector_kind =
  match String.split_on_char ':' s with
  | [ "never" ] -> Harness.Scenario.Never
  | [ "perfect" ] -> Harness.Scenario.Perfect
  | [ "oracle"; dd; fpe; fpw; fpl ] ->
      Harness.Scenario.Oracle
        {
          detection_delay = int_field "detector" dd;
          fp_per_edge = int_field "detector" fpe;
          fp_window = int_field "detector" fpw;
          fp_max_len = int_field "detector" fpl;
        }
  | [ "heartbeat"; p; it; b ] ->
      Harness.Scenario.Heartbeat
        {
          period = int_field "detector" p;
          initial_timeout = int_field "detector" it;
          bump = int_field "detector" b;
        }
  | [ "unreliable"; p; d ] ->
      Harness.Scenario.Unreliable
        { period = int_field "detector" p; duration = int_field "detector" d }
  | _ -> fail "detector: cannot parse %S" s

let decode_algo s : Harness.Scenario.algo_kind =
  match s with
  | "song-pike" -> Harness.Scenario.Song_pike
  | "fork-only" -> Harness.Scenario.Fork_only
  | "chandy-misra" -> Harness.Scenario.Chandy_misra
  | "ordered" -> Harness.Scenario.Ordered
  | _ -> fail "algo: unknown %S" s

let encode_workload (w : Harness.Scenario.workload) =
  let tlo, thi = w.think and elo, ehi = w.eat in
  Printf.sprintf "%d:%d:%d:%d" tlo thi elo ehi

let decode_workload s : Harness.Scenario.workload =
  match String.split_on_char ':' s with
  | [ tlo; thi; elo; ehi ] ->
      {
        think = (int_field "workload" tlo, int_field "workload" thi);
        eat = (int_field "workload" elo, int_field "workload" ehi);
      }
  | _ -> fail "workload: cannot parse %S" s

let encode_crashes (c : Harness.Scenario.crash_plan) =
  match c with
  | Harness.Scenario.No_crashes -> "none"
  | Harness.Scenario.Crash_at l ->
      "at:"
      ^ String.concat "," (List.map (fun (p, t) -> Printf.sprintf "%d@%d" p t) l)
  | Harness.Scenario.Random_crashes { count; from_t; to_t } ->
      Printf.sprintf "random:%d:%d:%d" count from_t to_t

let decode_crashes s : Harness.Scenario.crash_plan =
  match String.split_on_char ':' s with
  | [ "none" ] -> Harness.Scenario.No_crashes
  | [ "at"; l ] ->
      let entry e =
        match String.split_on_char '@' e with
        | [ p; t ] -> (int_field "crashes" p, int_field "crashes" t)
        | _ -> fail "crashes: cannot parse entry %S" e
      in
      Harness.Scenario.Crash_at
        (if l = "" then [] else List.map entry (String.split_on_char ',' l))
  | [ "random"; count; from_t; to_t ] ->
      Harness.Scenario.Random_crashes
        {
          count = int_field "crashes" count;
          from_t = int_field "crashes" from_t;
          to_t = int_field "crashes" to_t;
        }
  | _ -> fail "crashes: cannot parse %S" s

let encode_check_every = function None -> "none" | Some k -> string_of_int k

let decode_check_every s =
  if s = "none" then None else Some (int_field "check-every" s)

(* Fixed field order; describe and to_jsonl share it so reproducers and
   campaign reports read the same way. *)
let fields (s : Harness.Scenario.t) =
  [
    ("name", s.name);
    ("topology", encode_topology s.topology);
    ("seed", Printf.sprintf "%Ld" s.seed);
    ("delay", encode_delay s.delay);
    ("detector", encode_detector s.detector);
    ("algo", Harness.Scenario.algo_name s.algo);
    ("workload", encode_workload s.workload);
    ("crashes", encode_crashes s.crashes);
    ("horizon", string_of_int s.horizon);
    ("check-every", encode_check_every s.check_every);
    ("acks", string_of_int s.acks_per_session);
  ]

let describe s =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (fields s))

let to_jsonl ?header ~property ~message s =
  let buf = Buffer.create 1024 in
  (match header with None -> () | Some h -> Buffer.add_string buf ("# " ^ h ^ "\n"));
  let seq = ref 0 in
  let mark k v =
    Obs.Jsonl.append buf
      {
        Obs.Record.seq = !seq;
        time = 0;
        kind = Obs.Record.Mark { subject = -1; tag = "fuzz.scenario"; detail = k ^ "=" ^ v };
      };
    incr seq
  in
  List.iter (fun (k, v) -> mark k v) (fields s);
  mark "property" property;
  mark "message" message;
  Buffer.contents buf

let of_jsonl contents =
  let lines =
    String.split_on_char '\n' contents
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '#')
  in
  let entries =
    List.filter_map
      (fun line ->
        match Obs.Jsonl.field_string line "tag" with
        | Some "fuzz.scenario" -> (
            match Obs.Jsonl.field_string line "detail" with
            | Some detail -> (
                match String.index_opt detail '=' with
                | Some i ->
                    Some
                      ( String.sub detail 0 i,
                        String.sub detail (i + 1) (String.length detail - i - 1) )
                | None -> None)
            | None -> None)
        | _ -> None)
      lines
  in
  let get what =
    match List.assoc_opt what entries with
    | Some v -> v
    | None -> fail "missing field %S" what
  in
  match
    let s : Harness.Scenario.t =
      {
        name = get "name";
        topology = decode_topology (get "topology");
        seed = int64_field "seed" (get "seed");
        delay = decode_delay (get "delay");
        detector = decode_detector (get "detector");
        algo = decode_algo (get "algo");
        workload = decode_workload (get "workload");
        crashes = decode_crashes (get "crashes");
        horizon = int_field "horizon" (get "horizon");
        check_every = decode_check_every (get "check-every");
        acks_per_session = int_field "acks" (get "acks");
      }
    in
    (s, get "property")
  with
  | result -> Ok result
  | exception Parse msg -> Error msg

type outcome =
  | Reproduced of { property : string; message : string }
  | Clean of { property : string }

let replay (p : Property.t) s =
  let r = Harness.World.run s in
  match p.check r with
  | Some message -> Reproduced { property = p.name; message }
  | None -> Clean { property = p.name }

let pp_outcome ppf = function
  | Reproduced { property; message } ->
      Format.fprintf ppf "reproduced: %s — %s" property message
  | Clean { property } -> Format.fprintf ppf "clean: %s held on replay" property
