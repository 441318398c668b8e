(* Spans for the traced run, recorded from the benchmark's side of each
   public call and held in memory until the run ends. GC work is read
   from the runtime's own event ring ([runtime_events]) whenever a span
   closes, and recorded as [gc.minor] / [gc.major] spans whose parent is
   the innermost span that was open when the collection started. *)

type t = { id : int; name : string; start_ns : int64; end_ns : int64; parent : int }

let now () = Monotonic_clock.now ()
let seconds s = Int64.to_float (Int64.sub s.end_ns s.start_ns) *. 1e-9
let recorded = ref []
let next_id = ref 0

let fresh () =
  let id = !next_id in
  incr next_id;
  id

(* Open spans, innermost first: (id, start, name). *)
let open_spans = ref []

(* Events the runtime overwrote before they were read, by the span that
   was innermost when the loss was noticed. *)
let lost_events = Hashtbl.create 8
let max_rings = 128
let minor_start = Array.make max_rings 0L
let major_start = Array.make max_rings 0L

let gc_span name start_ns ts =
  match List.find_opt (fun (_, s, _) -> s <= start_ns) !open_spans with
  | None -> ()
  | Some (parent, _, _) ->
      recorded :=
        { id = fresh (); name; start_ns; end_ns = Runtime_events.Timestamp.to_int64 ts; parent } :: !recorded

let callbacks =
  lazy
    (Runtime_events.Callbacks.create
       ~runtime_begin:(fun ring ts phase ->
         let ts = Runtime_events.Timestamp.to_int64 ts in
         match phase with
         | Runtime_events.EV_MINOR -> minor_start.(ring) <- ts
         | Runtime_events.EV_MAJOR_SLICE -> major_start.(ring) <- ts
         | _ -> ())
       ~runtime_end:(fun ring ts phase ->
         match phase with
         | Runtime_events.EV_MINOR -> gc_span "gc.minor" minor_start.(ring) ts
         | Runtime_events.EV_MAJOR_SLICE -> gc_span "gc.major" major_start.(ring) ts
         | _ -> ())
       ~lost_events:(fun _ n ->
         let name = match !open_spans with (_, _, name) :: _ -> name | [] -> "-" in
         Hashtbl.replace lost_events name (n + Option.value ~default:0 (Hashtbl.find_opt lost_events name)))
       ())

let cursor = ref None

let poll () =
  Option.iter (fun c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)) !cursor

let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None);
  poll ()

(* [span ~parent name f] runs [f id] inside a span; [f] passes [id] on as
   the parent of its own child spans. *)
let span ?(parent = -1) name f =
  let id = fresh () in
  let start_ns = now () in
  open_spans := (id, start_ns, name) :: !open_spans;
  let x = f id in
  let end_ns = now () in
  poll ();
  open_spans := List.tl !open_spans;
  recorded := { id; name; start_ns; end_ns; parent } :: !recorded;
  x

let all () = List.rev !recorded

(* One span as JSON; [--spans FILE] writes one per line, tagged with its
   workload. Times are monotonic-clock nanoseconds. *)
let to_json ?workload s =
  Json.Obj
    (Option.fold ~none:[] ~some:(fun w -> [ ("workload", Json.Str w) ]) workload
    @ [
        ("id", Json.Num (float_of_int s.id));
        ("name", Json.Str s.name);
        ("start_ns", Json.Num (Int64.to_float s.start_ns));
        ("end_ns", Json.Num (Int64.to_float s.end_ns));
        ("parent", if s.parent < 0 then Json.Null else Json.Num (float_of_int s.parent));
      ])

let of_json v =
  let ns k = Int64.of_float (Json.to_float (Json.member k v)) in
  {
    id = Json.to_int (Json.member "id" v);
    name = Json.to_str (Json.member "name" v);
    start_ns = ns "start_ns";
    end_ns = ns "end_ns";
    parent = (match Json.member "parent" v with Json.Null -> -1 | p -> Json.to_int p);
  }

type row = { path : string list; first : int64; count : int; total : float; self : float }

(* Spans aggregated by their path of names from the root (outermost
   first): first start, count, total seconds and self seconds (duration
   minus the durations of direct children). *)
let tree spans =
  let by_id = Hashtbl.create 1024 and child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent (seconds s +. Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent)))
    spans;
  let rec path s =
    match Hashtbl.find_opt by_id s.parent with None -> [ s.name ] | Some p -> path p @ [ s.name ]
  in
  let rows = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let p = path s and self = seconds s -. Option.value ~default:0. (Hashtbl.find_opt child_sum s.id) in
      let r =
        match Hashtbl.find_opt rows p with
        | Some r ->
            { r with first = min r.first s.start_ns; count = r.count + 1; total = r.total +. seconds s; self = r.self +. self }
        | None -> { path = p; first = s.start_ns; count = 1; total = seconds s; self }
      in
      Hashtbl.replace rows p r)
    spans;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []

(* Total seconds of spans named [name] below a span named [under]. *)
let total_under spans ~under name =
  List.fold_left
    (fun acc r ->
      match List.rev r.path with
      | last :: above when last = name && List.mem under above -> acc +. r.total
      | _ -> acc)
    0. (tree spans)
