(* Transitive effect inference.

   Sites reports direct uses of ambient state (Random.*, Unix.*,
   Sys.time, exit) and library IO at the use site. This pass gives each
   zone function an effect summary — which of those two classes, and
   non-local mutation, its body can reach — and propagates summaries
   over the call graph to a fixpoint, so a function that reaches a
   violation only through helpers is reported too, at its own binding,
   under the same rule ids.

   Two deliberate asymmetries keep the output useful:

   - Suppressed sources do not seed. An effect silenced at its site by
     [@lint.allow] or by the sim/rng.ml exemption is
     sanctioned; sanctioned effects must not taint every caller.

   - Only transitively-acquired effects are reported. A direct call to
     Unix.gettimeofday is already reported at that exact expression;
     re-reporting it here would duplicate every finding. A function is
     flagged only when its own body is clean but some callee chain is
     not, and the message names the chain. *)

open Typedtree

let ambient_rule = Rule.name Rule.Ambient_effects
let io_rule = Rule.name Rule.Io_in_library
let mutable_rule = Rule.name Rule.Mutable_global

let checked_rules = [ ambient_rule; io_rule; mutable_rule ]

(* effect source: which rule, and a display name for the message *)
type source = { rule : string; what : string }

(* ------------------------------------------------------------------ *)
(* Own effects of a definition.                                        *)
(* ------------------------------------------------------------------ *)

(* Scope-sensitive scan: [@lint.allow] attributes encountered on the
   way down suppress matching sources (and count as used); sim/rng.ml
   does not seed at all. *)
let own_effects ?registry (d : Callgraph.def) =
  let ctx =
    Suppress.make_ctx ?registry ~enabled:(fun _ -> true) ~file:d.source ()
  in
  let out = ref [] in
  let free =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (id, _) -> Hashtbl.replace tbl (Ident.unique_name id) ())
      (Callgraph.free_ident_occurrences d.full);
    tbl
  in
  let note rule what =
    if (not (Suppress.silenced ctx rule)) && not (List.exists (fun s -> s.rule = rule) !out)
    then out := { rule; what } :: !out
  in
  (* A mutation whose target lives outside this definition: a module
     path, or a local ident that is free in the whole definition. *)
  let nonlocal_target (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem free (Ident.unique_name id)
    | Texp_ident (_, _, _) -> true
    | _ -> false
  in
  let expr it e =
    Suppress.with_expr ctx e @@ fun () ->
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
        Option.iter
          (fun (rule, what) -> note (Rule.name rule) what)
          (Callgraph.effect_of ~file:d.source p)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        let segs = Callgraph.strip_stdlib (Callgraph.normalize_path p) in
        if Callgraph.mutating_fn segs then
          (* the mutated value is the first mutable-typed argument
             (Array.sort's is the second: the comparator comes first) *)
          let target =
            List.find_map
              (fun (_, a) ->
                match a with
                | Some a
                  when Option.bind (Callgraph.type_head a.exp_type)
                         Callgraph.mutable_type_name
                       <> None ->
                    Some a
                | _ -> None)
              args
          in
          match target with
          | Some tgt when nonlocal_target tgt ->
              note mutable_rule
                (Printf.sprintf "%s on non-local mutable state"
                   (Callgraph.key_of_segments segs))
          | _ -> ())
    | Texp_setfield (tgt, _, lbl, _) ->
        if nonlocal_target tgt then
          note mutable_rule
            (Printf.sprintf "assignment to mutable field %s of non-local state"
               lbl.Types.lbl_name)
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  Suppress.with_attrs ctx d.attrs (fun () -> it.expr it d.full);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Fixpoint over the call graph.                                       *)
(* ------------------------------------------------------------------ *)

type acquired = { src : source; via : string list (* callee chain, [] = own *) }

let run ?registry (graph : Callgraph.t) =
  Option.iter (fun t -> Suppress.note_checked t checked_rules) registry;
  (* uid -> rule -> acquired *)
  let eff : (string, (string, acquired) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let table uid =
    match Hashtbl.find_opt eff uid with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.add eff uid t;
        t
  in
  (* Local lets are not independent functions here: their bodies are
     textually part of the enclosing toplevel definition, so the
     enclosing def's own scan already covers them, and analysing them
     in isolation would mistake the enclosing function's locals for
     non-local state. The effect graph is toplevel-only. *)
  let toplevel = List.filter (fun (d : Callgraph.def) -> d.toplevel) graph.defs in
  let own : (string, source list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (d : Callgraph.def) ->
      let sources = own_effects ?registry d in
      Hashtbl.replace own d.uid sources;
      let t = table d.uid in
      List.iter (fun s -> Hashtbl.replace t s.rule { src = s; via = [] }) sources)
    toplevel;
  (* Resolved callees of each def, deduplicated, cached once. *)
  let callees =
    List.map
      (fun (d : Callgraph.def) ->
        let seen = Hashtbl.create 8 in
        let cs =
          List.filter_map
            (fun (p, _) ->
              match Callgraph.resolve graph ~unit_name:d.unit_name p with
              | Some g
                when g.toplevel && g.uid <> d.uid && not (Hashtbl.mem seen g.uid) ->
                  Hashtbl.add seen g.uid ();
                  Some g
              | _ -> None)
            (Callgraph.ident_refs d.body)
        in
        (d, cs))
      toplevel
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((d : Callgraph.def), cs) ->
        let t = table d.uid in
        List.iter
          (fun (g : Callgraph.def) ->
            Hashtbl.iter
              (fun rule (a : acquired) ->
                if not (Hashtbl.mem t rule) then begin
                  Hashtbl.add t rule { src = a.src; via = g.key :: a.via };
                  changed := true
                end)
              (table g.uid))
          cs)
      callees
  done;
  (* Report transitively-acquired effects at the defining binding. *)
  Suppress.per_file ?registry @@ fun ctx_for ->
  List.iter
    (fun (d : Callgraph.def) ->
      if d.toplevel then
        let ctx = ctx_for d.source in
        let own_rules =
          match Hashtbl.find_opt own d.uid with Some l -> List.map (fun s -> s.rule) l | None -> []
        in
        Hashtbl.fold (fun rule a acc -> (rule, a) :: acc) (table d.uid) []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (rule, a) ->
               if a.via <> [] && not (List.mem rule own_rules) then
                 Suppress.with_attrs ctx d.attrs @@ fun () ->
                 Suppress.emit ctx ~loc:d.loc ~rule
                   (Printf.sprintf
                      "%s reaches %s through %s; the violation is inherited by every \
                       caller — push the effect to the edge of the zone or thread the \
                       dependency explicitly"
                      d.name a.src.what
                      (String.concat " -> " a.via))))
    graph.defs
