(* The domain-escape race detector.

   A task body handed to Exec.Pool (run_batch / init / map_array /
   map_list) runs concurrently on every domain of the pool. Any mutable
   value the body captures from its environment is therefore shared by
   the whole batch; if any task may write it, the batch races.

   The pass is interprocedural in two directions:

   - Sink discovery. The builtin sinks are the Pool entry points; a
     function that forwards one of its parameters into a sink position
     (directly or through further helpers) becomes a sink itself at
     that parameter. Computed as a fixpoint over the zone call graph,
     so `let go pool n body = Pool.run_batch pool n body` and its
     wrappers are all recognised.

   - Body resolution. At a sink call site the task argument may be a
     lambda literal, or a name bound by a local or structure-level let;
     named bodies are resolved through the definition table and their
     capture environment analysed at the call site.

   What is flagged: a captured value of mutable type (ref, array,
   bytes, Hashtbl/Buffer/Queue/Stack.t) that the body may write — via
   :=, incr, a known mutating stdlib call, a mutable-field assignment —
   or that it passes to a call we cannot resolve (conservative escape).
   A captured record is flagged only when the body assigns one of its
   mutable fields (usage-based; we do not expand type declarations).

   What is proven safe:
   - read-only captures: run_batch blocks the submitter until the batch
     drains and every task runs the same closure, so no-writer implies
     no-race;
   - shard-local arrays: when every access (read and write) to a
     captured array/bytes indexes it with exactly the task's own index
     parameter, slots are disjoint by construction (the Pool.init
     results pattern);
   - Atomic.t captures: the sanctioned cross-domain primitive.

   Known holes, on purpose: a body that receives the shared value as an
   argument rather than a capture; captures written only through an
   alias; mutable state reached through a captured closure. *)

open Typedtree

let rule_name = Rule.name Rule.Domain_escape

let builtin_sinks =
  [
    [ "Pool"; "run_batch" ];
    [ "Pool"; "init" ];
    [ "Pool"; "map_array" ];
    [ "Pool"; "map_list" ];
  ]

let is_builtin_sink segs =
  List.exists (fun s -> Callgraph.suffix_matches ~suffix:s segs) builtin_sinks

(* ------------------------------------------------------------------ *)
(* Sink-parameter fixpoint.                                            *)
(* ------------------------------------------------------------------ *)

(* def uid -> (param index -> chain of display names down to the pool) *)
type sinks = (string, (int, string list) Hashtbl.t) Hashtbl.t

let sink_table (sinks : sinks) uid =
  match Hashtbl.find_opt sinks uid with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.add sinks uid tbl;
      tbl

let add_sink sinks (d : Callgraph.def) idx chain =
  let tbl = sink_table sinks d.uid in
  if Hashtbl.mem tbl idx then false
  else begin
    Hashtbl.add tbl idx chain;
    true
  end

let rec arrow_args ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, b, _) -> a :: arrow_args b
  | Types.Tpoly (ty, _) -> arrow_args ty
  | _ -> []

(* Seed: definitions that ARE the pool entry points. *)
let seed_sinks sinks (graph : Callgraph.t) =
  List.iter
    (fun (d : Callgraph.def) ->
      if d.toplevel && is_builtin_sink (Callgraph.segments_of_string d.key) then
        List.iteri
          (fun i ty -> if Callgraph.is_arrow ty then ignore (add_sink sinks d i [ d.key ]))
          (arrow_args d.full.exp_type))
    graph.defs

(* The task-body argument positions of a call, with the chain of
   functions the body will travel through to reach the pool. *)
let task_args sinks (graph : Callgraph.t) ~unit_name (c : Callgraph.call) =
  let positional = List.mapi (fun i (_, a) -> (i, a)) c.args in
  match Callgraph.resolve graph ~unit_name c.callee with
  | Some g -> (
      match Hashtbl.find_opt sinks g.uid with
      | Some tbl ->
          List.filter_map
            (fun (i, a) ->
              match (Hashtbl.find_opt tbl i, a) with
              | Some chain, Some a -> Some (a, chain)
              | _ -> None)
            positional
      | None -> [])
  | None ->
      let segs = Callgraph.normalize_path c.callee in
      if is_builtin_sink segs then
        List.filter_map
          (fun (_, a) ->
            match a with
            | Some a when Callgraph.is_arrow a.exp_type ->
                Some (a, [ Callgraph.key_of_segments segs ])
            | _ -> None)
          positional
      else []

let param_index (d : Callgraph.def) id =
  let rec go i = function
    | [] -> None
    | p :: tl -> if Ident.same p id then Some i else go (i + 1) tl
  in
  go 0 d.params

let fixpoint sinks (graph : Callgraph.t) =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d : Callgraph.def) ->
        List.iter
          (fun c ->
            List.iter
              (fun (arg, chain) ->
                match Callgraph.head_ident arg with
                | Some id -> (
                    match param_index d id with
                    | Some k ->
                        if add_sink sinks d k (d.key :: chain) then changed := true
                    | None -> ())
                | None -> ())
              (task_args sinks graph ~unit_name:d.unit_name c))
          (Callgraph.calls_in d.body))
      graph.defs
  done

(* ------------------------------------------------------------------ *)
(* Capture analysis of one task body.                                  *)
(* ------------------------------------------------------------------ *)

type usage =
  | Task_indexed of bool  (* array access at the task's own index; true = write *)
  | Read
  | Written of string
  | Escaped of string

let display segs =
  Callgraph.key_of_segments (Callgraph.strip_stdlib segs)

let indexed_access segs =
  match
    match segs with
    | [ "Stdlib"; m; f ] | [ m; f ] -> Some (m, f)
    | _ -> None
  with
  | Some (("Array" | "Bytes"), (("get" | "unsafe_get") as f)) -> Some (f, false)
  | Some (("Array" | "Bytes"), (("set" | "unsafe_set") as f)) -> Some (f, true)
  | _ -> None

(* Collect how the body uses each captured ident of interest. *)
let usages ~task_param ~interesting fn_expr =
  let tbl : (string, usage list ref) Hashtbl.t = Hashtbl.create 8 in
  let note id u =
    let k = Ident.unique_name id in
    if Hashtbl.mem interesting k then
      match Hashtbl.find_opt tbl k with
      | Some l -> l := u :: !l
      | None -> Hashtbl.add tbl k (ref [ u ])
  in
  let captured e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem interesting (Ident.unique_name id)
      ->
        Some id
    | _ -> None
  in
  let is_task_param e =
    match (task_param, e.exp_desc) with
    | Some p, Texp_ident (Path.Pident id, _, _) -> Ident.same p id
    | _ -> false
  in
  let rec expr it e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> note id Read
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        let segs = Callgraph.normalize_path p in
        let visit_arg (_, a) =
          Option.iter (fun a -> if captured a = None then expr it a) a
        in
        match (indexed_access segs, args) with
        | Some (fname, write), (_, Some arr) :: (_, Some idx) :: rest
          when captured arr <> None ->
            let id = Option.get (captured arr) in
            if is_task_param idx then note id (Task_indexed write)
            else if write then note id (Written (Printf.sprintf "%s at a foreign index" fname))
            else note id Read;
            if captured idx = None then expr it idx;
            List.iter visit_arg rest
        | _ ->
            List.iter
              (fun (_, a) ->
                match Option.bind a captured with
                | Some id ->
                    if Callgraph.mutating_fn segs then note id (Written (display segs))
                    else if Callgraph.reading_fn segs then note id Read
                    else note id (Escaped (display segs))
                | None -> ())
              args;
            List.iter visit_arg args)
    | Texp_setfield (tgt, _, lbl, rhs) ->
        (match captured tgt with
        | Some id -> note id (Written ("<- on mutable field " ^ lbl.Types.lbl_name))
        | None -> expr it tgt);
        expr it rhs
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it fn_expr;
  tbl

let first_map f l = List.find_map f l

let verdict ~tyname us =
  let writes =
    first_map
      (function
        | Written w -> Some ("writes it via " ^ w)
        | Escaped f ->
            Some ("passes it to " ^ f ^ ", which the linter cannot prove read-only")
        | Task_indexed true ->
            Some "writes it at the task index while also touching other indices"
        | _ -> None)
      us
  in
  match writes with
  | None -> None (* read-only capture: the batch has no writer *)
  | Some why ->
      let shard_local =
        (tyname = "array" || tyname = "bytes")
        && List.for_all (function Task_indexed _ -> true | _ -> false) us
      in
      if shard_local then None else Some why

let analyze_body ctx (graph : Callgraph.t) ~enclosing_attrs ~report_loc ~chain fn_expr =
  let params, _ = Callgraph.peel_params fn_expr in
  let task_param = match params with p :: _ -> Some p | [] -> None in
  let free = Callgraph.free_ident_occurrences fn_expr in
  (* Distinct captured idents with a representative occurrence. *)
  let seen = Hashtbl.create 8 in
  let captures =
    List.filter
      (fun (id, (e : expression)) ->
        let k = Ident.unique_name id in
        (not (Hashtbl.mem seen k))
        && begin
             Hashtbl.add seen k ();
             (* Functions and zone definitions are not data captures. *)
             (not (Callgraph.is_arrow e.exp_type))
             && Hashtbl.find_opt graph.by_uid k = None
           end)
      free
  in
  let interesting = Hashtbl.create 8 in
  List.iter (fun (id, _) -> Hashtbl.replace interesting (Ident.unique_name id) ()) captures;
  let tbl = usages ~task_param ~interesting fn_expr in
  List.iter
    (fun (id, (e : expression)) ->
      let tyname =
        match Option.bind (Callgraph.type_head e.exp_type) Callgraph.mutable_type_name with
        | Some n -> n
        | None -> "" (* records etc.: flagged only via setfield below *)
      in
      let us =
        match Hashtbl.find_opt tbl (Ident.unique_name id) with
        | Some l -> List.rev !l
        | None -> []
      in
      let why =
        if tyname <> "" then verdict ~tyname us
        else
          (* not a known mutable type: flag only a direct mutable-field
             assignment observed in the body *)
          first_map
            (function
              | Written w when String.length w > 0 && w.[0] = '<' ->
                  Some ("writes it via " ^ w)
              | _ -> None)
            us
      in
      match why with
      | None -> ()
      | Some why ->
          let shown = if tyname = "" then "mutable record" else tyname in
          Suppress.with_attrs ctx enclosing_attrs @@ fun () ->
          Suppress.with_expr ctx fn_expr @@ fun () ->
          Suppress.emit ctx ~loc:report_loc ~rule:rule_name
            (Printf.sprintf
               "task body reaching %s captures `%s` (%s) and %s; every domain in the \
                batch shares it — make it shard-local (fresh per task, or indexed only \
                by the task's own index) or reduce after the batch"
               (String.concat " -> " chain) (Ident.name id) shown why))
    captures

(* ------------------------------------------------------------------ *)
(* Driving the detection over the zone.                                *)
(* ------------------------------------------------------------------ *)

let run ?registry (graph : Callgraph.t) =
  Option.iter (fun t -> Suppress.note_checked t [ rule_name ]) registry;
  let sinks : sinks = Hashtbl.create 32 in
  seed_sinks sinks graph;
  fixpoint sinks graph;
  Suppress.per_file ?registry @@ fun ctx_for ->
  List.iter
    (fun (d : Callgraph.def) ->
      if d.toplevel then
        let ctx = ctx_for d.source in
        List.iter
          (fun (c : Callgraph.call) ->
            List.iter
              (fun (arg, chain) ->
                match arg.exp_desc with
                | Texp_function _ ->
                    analyze_body ctx graph ~enclosing_attrs:d.attrs
                      ~report_loc:arg.exp_loc ~chain arg
                | Texp_ident (p, _, _) -> (
                    match p with
                    | Path.Pident id when param_index d id <> None ->
                        () (* forwarded parameter: the fixpoint moved the
                              obligation to this function's callers *)
                    | _ -> (
                        match Callgraph.resolve graph ~unit_name:d.unit_name p with
                        | Some body_def ->
                            analyze_body ctx graph ~enclosing_attrs:d.attrs
                              ~report_loc:c.call_loc ~chain body_def.full
                        | None -> ()))
                | _ -> () (* partial application etc.: out of scope *))
              (task_args sinks graph ~unit_name:d.unit_name c))
          (Callgraph.calls_in d.body))
    graph.defs
