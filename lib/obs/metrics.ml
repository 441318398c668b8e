type counter = int ref
type gauge = int ref

type histogram = Stats.Multiset.t

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 16

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let register t name wanted make unwrap =
  match Hashtbl.find_opt t name with
  | None ->
      let m = make () in
      Hashtbl.add t name m;
      (match unwrap m with Some v -> v | None -> assert false)
  | Some m -> (
      match unwrap m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name m) wanted))

let counter t name =
  register t name "counter"
    (fun () -> Counter (ref 0))
    (function Counter c -> Some c | _ -> None)

let gauge t name =
  register t name "gauge" (fun () -> Gauge (ref 0)) (function Gauge g -> Some g | _ -> None)

let histogram t name =
  register t name "histogram"
    (fun () -> Histogram (Stats.Multiset.create ()))
    (function Histogram h -> Some h | _ -> None)

let incr (c : counter) = c := !c + 1
let add (c : counter) n = c := !c + n
let counter_value (c : counter) = !c
let set (g : gauge) v = g := v
let gauge_value (g : gauge) = !g

let observe = Stats.Multiset.add

type value =
  | Count of int
  | Level of int
  | Dist of { count : int; sum : int; min : int; max : int }

let value_of = function
  | Counter c -> Count !c
  | Gauge g -> Level !g
  | Histogram h ->
      let count = ref 0 and sum = ref 0 and lo = ref max_int and hi = ref min_int in
      List.iter
        (fun (v, c) ->
          count := !count + c;
          sum := !sum + (v * c);
          lo := min !lo v;
          hi := max !hi v)
        (Stats.Multiset.to_counts h);
      Dist { count = !count; sum = !sum; min = !lo; max = !hi }

let find t name = Option.map value_of (Hashtbl.find_opt t name)

let dump t =
  Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_value ppf = function
  | Count v -> Format.fprintf ppf "%d" v
  | Level v -> Format.fprintf ppf "%d" v
  | Dist { count = 0; _ } -> Format.fprintf ppf "count=0"
  | Dist { count; sum; min; max } ->
      Format.fprintf ppf "count=%d sum=%d min=%d max=%d mean=%.1f" count sum min max
        (float_of_int sum /. float_of_int count)

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter (fun (name, v) -> Format.fprintf ppf "%-28s %a@," name pp_value v) (dump t);
  Format.pp_close_box ppf ()
