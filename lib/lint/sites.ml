(* The use-site rules, each reported at the offending expression:

   - nondet-iteration: Hashtbl.iter / Hashtbl.fold, unless the value
     flows into a List.sort through |>, @@ or direct application;
   - ambient-effects / io-in-library: a reference that
     Callgraph.effect_of classifies;
   - physical-equality: == / != unless an operand is an integer or
     character literal;
   - mutable-global: a structure-level binding whose right-hand side
     allocates mutable state outside any function or lazy body;
   - exception-swallow: a [try ... with _] handler.

   The walk covers every expression of every unit, so a violation in a
   [let () = ...] or a functor body is seen too. Effects reports the
   ambient / io / mutation classes once more, at the binding of each
   function that reaches one only through helpers. *)

open Typedtree

let site_rules =
  Rule.
    [
      Nondet_iteration;
      Ambient_effects;
      Io_in_library;
      Physical_equality;
      Mutable_global;
      Exception_swallow;
    ]

let ident_segs e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (Callgraph.strip_stdlib (Callgraph.normalize_path p))
  | _ -> None

let hashtbl_iteration segs =
  match List.rev segs with (("iter" | "fold") as f) :: "Hashtbl" :: _ -> Some f | _ -> None

let rec is_sort_fn e =
  match e.exp_desc with
  | Texp_apply (f, _) -> is_sort_fn f
  | _ -> (
      match ident_segs e with
      | Some [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] -> true
      | _ -> false)

(* Allocators of mutable state; a toplevel binding reaching one of these
   outside a function body is shared by every run and every domain. *)
let mutable_allocator = function
  | [ "ref" ] -> Some "ref"
  | [ m; "create" ] when List.mem m [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Bytes" ] ->
      Some (m ^ ".create")
  | [ "Array"; (("make" | "create_float" | "init") as f) ] -> Some ("Array." ^ f)
  | [ "Bytes"; "make" ] -> Some "Bytes.make"
  | [ "Atomic"; "make" ] -> Some "Atomic.make"
  | _ -> None

(* A bare literal: a constrained one, [(0 : int)], does not count. *)
let immediate_constant e =
  match e.exp_desc with
  | Texp_constant
      (Const_int _ | Const_char _ | Const_int32 _ | Const_int64 _ | Const_nativeint _) ->
      e.exp_extra = []
  | _ -> false

let rec swallowing (p : pattern) =
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_or (a, b, _) -> swallowing a || swallowing b
  | _ -> false

type state = {
  file : string;
  ctx : Suppress.ctx;
  mutable sorted : bool; (* the value flows into a List.sort *)
}

let emit st loc rule fmt =
  Printf.ksprintf (fun message -> Suppress.emit st.ctx ~loc ~rule:(Rule.name rule) message) fmt

(* Scan a toplevel binding's right-hand side for mutable allocations,
   stopping at function and lazy boundaries (those allocate per call). *)
let rec scan_global st e =
  Suppress.with_expr st.ctx e @@ fun () ->
  match e.exp_desc with
  | Texp_apply (f, args) ->
      Option.iter
        (emit st e.exp_loc Rule.Mutable_global
           "toplevel %s creates mutable state shared across runs and domains; allocate it \
            per run (e.g. inside Harness.World)")
        (Option.bind (ident_segs f) mutable_allocator);
      List.iter (fun (_, a) -> Option.iter (scan_global st) a) args
  | Texp_tuple es | Texp_array es | Texp_construct (_, _, es) ->
      List.iter (scan_global st) es
  | Texp_variant (_, Some e) | Texp_open (_, e) -> scan_global st e
  | Texp_record { fields; extended_expression; _ } ->
      Array.iter
        (function _, Overridden (_, e) -> scan_global st e | _, Kept _ -> ())
        fields;
      Option.iter (scan_global st) extended_expression
  | Texp_let (_, vbs, body) ->
      List.iter (fun vb -> scan_global st vb.vb_expr) vbs;
      scan_global st body
  | Texp_sequence (a, b) ->
      scan_global st a;
      scan_global st b
  | Texp_ifthenelse (_, a, b) ->
      scan_global st a;
      Option.iter (scan_global st) b
  | _ -> ()

let check_node st e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match Callgraph.effect_of ~file:st.file p with
      | Some ((Rule.Ambient_effects as rule), what) ->
          emit st e.exp_loc rule
            "%s is an ambient effect: runs stop being a pure function of (scenario, \
             seed); thread Sim.Rng / engine time through instead"
            what
      | Some (rule, what) ->
          emit st e.exp_loc rule
            "%s writes to a process-global channel from library code; take a \
             Format.formatter parameter and let the caller choose the sink"
            what
      | None -> ())
  | Texp_apply (f, args) -> (
      match ident_segs f with
      | Some segs -> (
          (match hashtbl_iteration segs with
          | Some fn when not st.sorted ->
              emit st e.exp_loc Rule.Nondet_iteration
                "Hashtbl.%s enumerates bindings in unspecified hash order; sort the result \
                 (|> List.sort ...) or mark an order-insensitive reduction with \
                 [@lint.allow \"nondet-iteration\"]"
                fn
          | _ -> ());
          match segs with
          | [ ("==" | "!=") as op ]
            when List.length args = 2
                 && not
                      (List.exists
                         (function _, Some a -> immediate_constant a | _, None -> false)
                         args) ->
              emit st e.exp_loc Rule.Physical_equality
                "physical equality (%s) on possibly-boxed values depends on allocation \
                 history; use = / <> or compare"
                op
          | _ -> ())
      | None -> ())
  | Texp_try (_, cases) ->
      List.iter
        (fun c ->
          if c.c_guard = None && swallowing c.c_lhs then
            emit st c.c_lhs.pat_loc Rule.Exception_swallow
              "wildcard handler swallows every exception (including Stack_overflow and \
               Assert_failure); match the exceptions you mean to handle")
        cases
  | _ -> ()

let iterator st =
  let open Tast_iterator in
  let expr it e =
    Suppress.with_expr st.ctx e @@ fun () ->
    let saved = st.sorted in
    check_node st e;
    (* Recursion, threading the sorted flag through the three shapes of
       "this value is sorted": [v |> List.sort c], [List.sort c @@ v]
       and [List.sort c v]. *)
    (match e.exp_desc with
    | Texp_apply (op, [ (Nolabel, Some lhs); (Nolabel, Some rhs) ])
      when ident_segs op = Some [ "|>" ] && is_sort_fn rhs ->
        st.sorted <- true;
        it.expr it lhs;
        st.sorted <- saved;
        it.expr it rhs
    | Texp_apply (op, [ (Nolabel, Some f); (Nolabel, Some arg) ])
      when ident_segs op = Some [ "@@" ] && is_sort_fn f ->
        it.expr it f;
        st.sorted <- true;
        it.expr it arg
    | Texp_apply (f, args) when is_sort_fn f ->
        it.expr it f;
        st.sorted <- true;
        List.iter (fun (_, a) -> Option.iter (it.expr it) a) args
    | _ -> default_iterator.expr it e);
    st.sorted <- saved
  in
  let value_binding it vb =
    Suppress.with_attrs st.ctx vb.vb_attributes @@ fun () ->
    default_iterator.value_binding it vb
  in
  let structure_item it si =
    (match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            Suppress.with_attrs st.ctx vb.vb_attributes @@ fun () -> scan_global st vb.vb_expr)
          vbs
    | _ -> ());
    default_iterator.structure_item it si
  in
  { default_iterator with expr; value_binding; structure_item }

let run ?registry ?(allowlist = Allowlist.empty) ~rules units =
  let names =
    List.filter_map (fun r -> if List.mem r rules then Some (Rule.name r) else None) site_rules
  in
  Option.iter (fun t -> Suppress.note_checked t names) registry;
  Suppress.per_file ?registry ~enabled:(fun n -> List.mem n names) ~allowlist
  @@ fun ctx_for ->
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      let st = { file = u.source; ctx = ctx_for u.source; sorted = false } in
      let it = iterator st in
      it.structure it u.str)
    units
