(* The hot-path allocation guard.

   Functions annotated [@lint.hot] are the measured per-event paths of
   the simulator (Net.Link_stats.record_send, Sim.Wheel insert/cascade,
   the Sim.Engine fire loop, Cgraph.Graph.dir_index_opt): one call per
   simulated event at 10^5-10^6 scale, where a single allocation per
   call turns into GC pressure that dominates the profile. This pass is
   the static side of the BENCH_scale.json allocation gate: it flags
   every syntactically evident heap allocation in a hot body.

   Flagged: closure literals, tuples, records, array literals,
   argument-carrying constructors (including list cons) and polymorphic
   variants, lazy thunks, and calls to known allocating stdlib
   functions (ref, Array.make, Printf.sprintf, (@), (^), ...).

   Not seen (documented honesty): float boxing, closure allocation from
   partial application, and allocations inside callees — annotate the
   callee [@lint.hot] too if it is on the path. A deliberate allocation
   is justified in place with [@lint.allow "hot-path-alloc"] and a
   comment.

   The same walk checks rule [hot-path-optional]: a call that leaves an
   optional argument out. The callee then runs its default-filling
   wrapper on every call, and across modules compiled -opaque (dune's
   dev profile, which the benchmark builds) the call is a generic
   caml_applyN besides. The typed tree shows the omission: an argument
   the type checker filled with [None] (at [Location.none], where a
   written [?x:None] has a real location), or one left open by a partial
   application. *)

open Typedtree

let rule_name = Rule.name Rule.Hot_path_alloc
let optional_rule = Rule.name Rule.Hot_path_optional

let is_hot (attrs : attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = "lint.hot") attrs

(* A constructor, tuple or polymorphic variant whose every argument is a
   constant is static data: the compiler emits it once, and evaluating
   it allocates nothing. A format string literal is such a tree, and
   so are its subtrees. *)
let rec static e =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, { Types.cstr_tag = Types.Cstr_extension _; _ }, _) -> false
  | Texp_construct (_, _, args) -> List.for_all static args
  | Texp_tuple es -> List.for_all static es
  | Texp_variant (_, arg) -> Option.fold ~none:true ~some:static arg
  | _ -> false

(* An optional argument the call leaves out: filled with the type
   checker's own [None], or absent from a partial application. *)
let omitted = function
  | None -> true
  | Some { exp_desc = Texp_construct (_, { Types.cstr_name = "None"; _ }, []); exp_loc; _ } ->
      exp_loc = Location.none
  | Some _ -> false

let callee_name f =
  match f.exp_desc with
  | Texp_ident (p, _, _) -> String.concat "." (Callgraph.normalize_path p)
  | _ -> "a function"

let scan_def ctx (d : Callgraph.def) =
  let emit ~loc what =
    Suppress.emit ctx ~loc ~rule:rule_name
      (Printf.sprintf
         "%s allocates in [@lint.hot] %s: one heap block per call on a per-event path; \
          hoist it, restructure, or justify with [@lint.allow \"hot-path-alloc\"]"
         what d.name)
  in
  let expr it e =
    Suppress.with_expr ctx e @@ fun () ->
    (match e.exp_desc with
    | _ when static e -> ()
    | Texp_function _ -> emit ~loc:e.exp_loc "closure literal"
    | Texp_tuple _ -> emit ~loc:e.exp_loc "tuple construction"
    | Texp_record _ -> emit ~loc:e.exp_loc "record construction"
    | Texp_array _ -> emit ~loc:e.exp_loc "array literal"
    | Texp_construct (lid, _, _ :: _) ->
        let name = String.concat "." (Longident.flatten lid.txt) in
        emit ~loc:e.exp_loc
          (if name = "::" then "list cons (::)" else "constructor " ^ name)
    | Texp_variant (label, Some _) -> emit ~loc:e.exp_loc ("polymorphic variant `" ^ label)
    | Texp_lazy _ -> emit ~loc:e.exp_loc "lazy thunk"
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match Callgraph.allocating_fn (Callgraph.normalize_path p) with
        | Some f -> emit ~loc:e.exp_loc ("call to allocating " ^ f)
        | None -> ())
    | _ -> ());
    (match e.exp_desc with
    | Texp_apply (f, args) ->
        List.iter
          (function
            | Asttypes.Optional l, arg when omitted arg ->
                Suppress.emit ctx ~loc:e.exp_loc ~rule:optional_rule
                  (Printf.sprintf
                     "call to %s leaves optional argument ?%s out in [@lint.hot] %s: the \
                      default-filling wrapper runs on every event, behind a caml_applyN \
                      across -opaque modules; call a function without it, or justify with \
                      [@lint.allow \"hot-path-optional\"]"
                     (callee_name f) l d.name)
            | _ -> ())
          args
    | _ -> ());
    (* Descend everywhere, including into flagged nodes: a tuple of
       closures is two findings, not one. *)
    match e.exp_desc with
    | Texp_function _ ->
        (* the body of a nested closure still runs on the hot path only
           if called; the closure allocation itself was flagged above,
           and its body is typically the cold continuation — skip it. *)
        ()
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  Suppress.with_attrs ctx d.attrs @@ fun () -> it.expr it d.body

let run ?registry (graph : Callgraph.t) =
  Option.iter (fun t -> Suppress.note_checked t [ rule_name; optional_rule ]) registry;
  Suppress.per_file ?registry @@ fun ctx_for ->
  List.iter
    (fun (d : Callgraph.def) -> if is_hot d.attrs then scan_def (ctx_for d.source) d)
    graph.defs
