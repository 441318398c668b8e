type sink = Record.t -> unit

type t = {
  mutable seq : int;
  mutable collect : bool;
  mutable buf : Record.t array;
  mutable len : int;
  (* Sinks are kept in subscription order, the order they fire in (which
     is load-bearing for deterministic traces). The list is rebuilt on
     the rare subscribe so the per-record fan-out is a plain walk. *)
  mutable sinks : sink list;
  (* Cached enablement so every emission is one dereference. The flag is
     a shared [bool ref] so hot-path callers (engine, network) can hold
     the cell directly and guard emission with an inline dereference
     instead of a cross-module call. *)
  tracing : bool ref;
}

let refresh t = t.tracing := t.collect || t.sinks <> []
let create () = { seq = 0; collect = false; buf = [||]; len = 0; sinks = []; tracing = ref false }

let collecting () =
  let t = create () in
  t.collect <- true;
  refresh t;
  t

let on_record t f =
  t.sinks <- t.sinks @ [ f ];
  refresh t

let tracing t = !(t.tracing)
let tracing_flag t = t.tracing

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
  fan_out r t.sinks

(* Every emission: one branch when tracing is off, and the record is
   only allocated behind the branch. *)
let sched t ~time ~id ~at = if !(t.tracing) then push t time (Record.Sched { id; at })
let fire t ~time ~id = if !(t.tracing) then push t time (Record.Fire { id })

let send t ~time ~src ~dst ~tag ~deliver_at =
  if !(t.tracing) then push t time (Record.Send { src; dst; tag; deliver_at })

let deliver t ~time ~src ~dst ~tag =
  if !(t.tracing) then push t time (Record.Deliver { src; dst; tag })

let drop t ~time ~src ~dst ~tag = if !(t.tracing) then push t time (Record.Drop { src; dst; tag })
let phase t ~time ~pid ~phase = if !(t.tracing) then push t time (Record.Phase { pid; phase })

let suspect t ~time ~observer ~target ~on =
  if !(t.tracing) then push t time (Record.Suspect { observer; target; on })

let crash t ~time ~pid = if !(t.tracing) then push t time (Record.Crash { pid })

let mark t ~time ~subject ~tag detail =
  if !(t.tracing) then push t time (Record.Mark { subject; tag; detail })

let records t = Array.to_list (Array.sub t.buf 0 t.len)
let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done
let count t = t.len
