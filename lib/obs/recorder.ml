type sink = Record.t -> unit

type t = {
  mutable seq : int;
  mutable collect : bool;
  mutable buf : Record.t array;
  mutable len : int;
  (* Sinks are kept in subscription order, the order they fire in (which
     is load-bearing for deterministic traces). The lists are rebuilt on
     the rare subscribe so the per-record fan-out is a plain walk. *)
  mutable full_sinks : sink list;
  mutable light_sinks : sink list;
  (* Cached enablement so every emission is one mutable-field test. The
     full flag is a shared [bool ref] so hot-path callers (engine,
     network) can hold the cell directly and guard emission with an
     inline dereference instead of a cross-module call. *)
  mutable light_on : bool;
  full_on : bool ref;
}

let refresh t =
  t.full_on := t.collect || t.full_sinks <> [];
  t.light_on <- !(t.full_on) || t.light_sinks <> []

let create () =
  {
    seq = 0;
    collect = false;
    buf = [||];
    len = 0;
    full_sinks = [];
    light_sinks = [];
    light_on = false;
    full_on = ref false;
  }

let collecting () =
  let t = create () in
  t.collect <- true;
  refresh t;
  t

let on_record t f =
  t.full_sinks <- t.full_sinks @ [ f ];
  refresh t

let on_light t f =
  t.light_sinks <- t.light_sinks @ [ f ];
  refresh t

let enabled t = t.light_on
let tracing t = !(t.full_on)
let tracing_flag t = t.full_on

let append t r =
  if t.len = Array.length t.buf then begin
    let cap = max 256 (2 * t.len) in
    let buf = Array.make cap r in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- r;
  t.len <- t.len + 1

(* A toplevel recursion rather than [List.iter (fun f -> f r)]: no
   closure per record. *)
let rec fan_out r = function
  | [] -> ()
  | f :: rest ->
      f r;
      fan_out r rest

let push t time kind =
  let r = { Record.seq = t.seq; time; kind } in
  t.seq <- t.seq + 1;
  if t.collect then append t r;
  fan_out r t.full_sinks;
  r

let emit_structural t ~time kind = if !(t.full_on) then ignore (push t time kind)

let emit_light t ~time kind =
  if t.light_on then begin
    let r = push t time kind in
    fan_out r t.light_sinks
  end

(* Structural emissions: one branch when full tracing is off, and the
   record is only allocated behind the branch. *)
let sched t ~time ~id ~at = if !(t.full_on) then ignore (push t time (Record.Sched { id; at }))
let fire t ~time ~id = if !(t.full_on) then ignore (push t time (Record.Fire { id }))
let cancel t ~time ~id = if !(t.full_on) then ignore (push t time (Record.Cancel { id }))

let send t ~time ~src ~dst ~tag ~deliver_at =
  if !(t.full_on) then ignore (push t time (Record.Send { src; dst; tag; deliver_at }))

let deliver t ~time ~src ~dst ~tag =
  if !(t.full_on) then ignore (push t time (Record.Deliver { src; dst; tag }))

let drop t ~time ~src ~dst ~tag =
  if !(t.full_on) then ignore (push t time (Record.Drop { src; dst; tag }))

let phase t ~time ~pid ~phase = emit_light t ~time (Record.Phase { pid; phase })

let suspect t ~time ~observer ~target ~on =
  emit_light t ~time (Record.Suspect { observer; target; on })

let crash t ~time ~pid = emit_light t ~time (Record.Crash { pid })

let mark t ~time ~subject ~tag detail =
  emit_light t ~time (Record.Mark { subject; tag; detail })

let records t = Array.to_list (Array.sub t.buf 0 t.len)
let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done
let count t = t.len
