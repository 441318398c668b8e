(* Shared typed-AST substrate for the lint passes: path normalization
   across dune's module mangling, the per-zone function definition
   table, free-variable and call extraction, the mutation / allocation
   classifiers Escape, Effects and Hotpath agree on, and the effect
   classifier Sites and Effects share.

   Normalization: dune compiles lib/sim/wheel.ml as the unit
   [Sim__Wheel], so the typed path of [Sim.Wheel.insert] seen from
   another library is [Exec__...]-style mangled. Every path is reduced
   to dot-separated segments with ["__"] treated as a module separator,
   so ["Sim__Wheel.insert"] and ["Sim.Wheel.insert"] are the same key. *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* Paths and normalization.                                            *)
(* ------------------------------------------------------------------ *)

(* Split on "__" (dune's module separator) while preserving single
   underscores: "Sim__Wheel" -> ["Sim"; "Wheel"], "run_batch" stays. *)
let split_dunder s =
  let n = String.length s in
  let rec go start i acc =
    if i + 1 >= n then String.sub s start (n - start) :: acc
    else if s.[i] = '_' && s.[i + 1] = '_' then
      go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  if n = 0 then [] else List.rev (go 0 0 []) |> List.filter (fun x -> x <> "")

let rec raw_segments = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> raw_segments p @ [ s ]
  | Path.Papply (p, _) -> raw_segments p
  | Path.Pextra_ty (p, _) -> raw_segments p

let normalize_path p = List.concat_map split_dunder (raw_segments p)

let segments_of_string s =
  String.split_on_char '.' s |> List.concat_map split_dunder

let key_of_segments = String.concat "."

let rec last2 = function
  | [] -> None
  | [ a ] -> Some ("", a)
  | [ a; b ] -> Some (a, b)
  | _ :: tl -> last2 tl

let suffix_matches ~suffix segs =
  let ls = List.length suffix and lg = List.length segs in
  ls <= lg
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (lg - ls) segs = suffix


(* ------------------------------------------------------------------ *)
(* Type classifiers.                                                   *)
(* ------------------------------------------------------------------ *)

let rec type_head ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (normalize_path p)
  | Types.Tpoly (ty, _) -> type_head ty
  | _ -> None

let is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (ty, _) -> (
      match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false)
  | _ -> false

(* Type constructors whose values carry mutable cells a parallel batch
   can race on. Atomic.t is exempt: it is the sanctioned cross-domain
   primitive. Mutable record fields are caught usage-based (setfield in
   the closure body), not by type inspection. *)
let mutable_type_name segs =
  match last2 segs with
  | Some (_, "ref") -> Some "ref"
  | Some (_, "array") -> Some "array"
  | Some (_, "bytes") -> Some "bytes"
  | Some ((("Hashtbl" | "Buffer" | "Queue" | "Stack") as m), "t") -> Some (m ^ ".t")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Mutation / allocation classifiers.                                  *)
(* ------------------------------------------------------------------ *)

(* Applications that write through one of their arguments. Coarse on
   purpose: a captured mutable value passed at any position of one of
   these counts as written (Array.blit reads src and writes dst; we do
   not distinguish). *)
let mutating_fn segs =
  match last2 segs with
  | Some (_, (":=" | "incr" | "decr")) -> true
  | Some ("Array", ("set" | "unsafe_set" | "fill" | "blit" | "sort" | "fast_sort" | "stable_sort"))
  | Some ("Bytes", ("set" | "unsafe_set" | "fill" | "blit" | "blit_string"))
  | Some
      ( "Hashtbl",
        ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace") )
  | Some
      ( "Buffer",
        ( "add_char" | "add_string" | "add_bytes" | "add_substring" | "add_subbytes"
        | "add_buffer" | "add_channel" | "clear" | "reset" | "truncate" ) )
  | Some ("Queue", ("push" | "add" | "pop" | "take" | "take_opt" | "clear" | "transfer"))
  | Some ("Stack", ("push" | "pop" | "pop_opt" | "clear")) -> true
  | _ -> false

(* Applications that only read their arguments: passing a captured
   mutable value to one of these is not a write. *)
let reading_fn segs =
  match last2 segs with
  | Some (_, "!") -> true
  | Some ("Array", ("get" | "unsafe_get" | "length" | "to_list" | "copy" | "mem" | "exists"
                   | "for_all" | "iter" | "iteri" | "map" | "mapi" | "fold_left"
                   | "fold_right" | "sub" | "append" | "of_list"))
  | Some ("Bytes", ("get" | "unsafe_get" | "length" | "to_string" | "sub" | "copy"))
  | Some ("Hashtbl", ("find" | "find_opt" | "find_all" | "mem" | "length" | "fold" | "iter"
                     | "to_seq" | "copy"))
  | Some ("Buffer", ("contents" | "length" | "to_bytes" | "nth" | "sub"))
  | Some ("Queue", ("length" | "is_empty" | "peek" | "peek_opt" | "top" | "iter" | "fold"
                   | "copy"))
  | Some ("Stack", ("length" | "is_empty" | "top" | "top_opt" | "iter" | "fold" | "copy")) ->
      true
  | _ -> false

(* Heap-allocating calls, for the hot-path pass. *)
let allocating_fn segs =
  match last2 segs with
  | Some (_, "ref") -> Some "ref"
  | Some (("Array" as m), ("make" | "create_float" | "init" | "of_list" | "to_list"
                          | "sub" | "append" | "copy" | "concat" | "map" | "mapi" as f))
  | Some (("Bytes" as m), ("make" | "create" | "init" | "sub" | "copy" | "of_string"
                          | "to_string" | "cat" as f))
  | Some (("Hashtbl" as m), ("create" | "copy" as f))
  | Some (("Buffer" as m), ("create" | "contents" | "to_bytes" as f))
  | Some (("Queue" as m), ("create" | "copy" as f))
  | Some (("Stack" as m), ("create" | "copy" as f))
  | Some (("Atomic" as m), ("make" as f))
  | Some (("String" as m), ("make" | "init" | "sub" | "concat" | "cat" | "map"
                           | "split_on_char" as f))
  | Some (("List" as m), ("map" | "mapi" | "init" | "append" | "rev" | "concat"
                         | "concat_map" | "filter" | "filter_map" | "rev_append"
                         | "sort" | "stable_sort" | "sort_uniq" | "of_seq" as f))
  | Some (("Printf" as m), ("sprintf" as f))
  | Some (("Format" as m), ("asprintf" as f)) -> Some (m ^ "." ^ f)
  | Some (_, "@") -> Some "(@)"
  | Some (_, "^") -> Some "(^)"
  | _ -> None

(* Effect classifier: the identifiers the ambient-effects and
   io-in-library rules flag at a use site, and the ones Effects seeds
   its summaries from. The sim-local RNG wrapper (sim/rng.ml) is the one
   sanctioned home for Random. *)

let strip_stdlib = function "Stdlib" :: tl -> tl | segs -> segs

let stdout_printer = function
  | "print_string" | "print_endline" | "print_newline" | "print_char" | "print_int"
  | "print_float" | "print_bytes" | "prerr_string" | "prerr_endline" | "prerr_newline" ->
      true
  | _ -> false

let random_exempt file =
  Filename.basename file = "rng.ml" && Filename.basename (Filename.dirname file) = "sim"

let effect_of ~file p =
  match strip_stdlib (normalize_path p) with
  | "Random" :: _ :: _ ->
      if random_exempt file then None else Some (Rule.Ambient_effects, "Random.*")
  | "Unix" :: _ -> Some (Rule.Ambient_effects, "Unix.*")
  | [ "Sys"; "time" ] -> Some (Rule.Ambient_effects, "Sys.time")
  | [ "exit" ] -> Some (Rule.Ambient_effects, "exit")
  | [ p ] when stdout_printer p -> Some (Rule.Io_in_library, p)
  | [ "Printf"; (("printf" | "eprintf") as p) ] -> Some (Rule.Io_in_library, "Printf." ^ p)
  | [ "Format"; (("printf" | "eprintf" | "print_string" | "print_newline" | "print_flush")
                as p) ] ->
      Some (Rule.Io_in_library, "Format." ^ p)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Definitions.                                                        *)
(* ------------------------------------------------------------------ *)

type def = {
  key : string;  (* normalized dotted path, e.g. "Sim.Wheel.insert" *)
  unit_name : string;
  uid : string;  (* unit-qualified ident stamp; stamps are per-unit *)
  name : string;
  params : Ident.t list;
  body : expression;  (* after peeling the parameter lambdas *)
  full : expression;  (* the original bound expression *)
  attrs : attributes;
  loc : Location.t;
  source : string;
  toplevel : bool;  (* structure-level (incl. nested modules); local lets are false *)
}

type t = {
  defs : def list;  (* toplevel defs then local lets, traversal order *)
  by_key : (string, def) Hashtbl.t;  (* toplevel only *)
  by_uid : (string, def) Hashtbl.t;  (* toplevel + local lets *)
}

let uid_of ~unit_name id = unit_name ^ "/" ^ Ident.unique_name id

(* fun x -> fun y -> body  ==>  params [x; y], that body. Stops at a
   multi-case [function]: its scrutinee pattern is a real pattern
   match, not a named parameter. *)
let peel_params (e : expression) =
  let rec go acc e =
    match e.exp_desc with
    | Texp_function { param; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
        let id =
          match c_lhs.pat_desc with
          | Tpat_var (id, _) -> id
          | Tpat_alias (_, id, _) -> id
          | _ -> param
        in
        go (id :: acc) c_rhs
    | _ -> (List.rev acc, e)
  in
  go [] e

let make_def ~unit_name ~source ~prefix ~toplevel id vb =
  let params, body = peel_params vb.vb_expr in
  let name = Ident.name id in
  {
    key = key_of_segments (prefix @ [ name ]);
    unit_name;
    uid = uid_of ~unit_name id;
    name;
    params;
    body;
    full = vb.vb_expr;
    attrs = vb.vb_attributes;
    loc = vb.vb_loc;
    source;
    toplevel;
  }

let pat_var p =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

(* Local [let f x = ...] bindings inside a toplevel body: registered by
   uid so a lambda reaching a pool sink through a local name still
   resolves. Only function-valued bindings matter. *)
let collect_local_lets ~unit_name ~source ~prefix expr k =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  match pat_var vb.vb_pat with
                  | Some id ->
                      let d = make_def ~unit_name ~source ~prefix ~toplevel:false id vb in
                      if d.params <> [] then k d
                  | None -> ())
                vbs
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr

let build (units : Cmt_load.unit_info list) =
  let defs = ref [] and locals = ref [] in
  let by_key = Hashtbl.create 256 and by_uid = Hashtbl.create 256 in
  let add_key d = if not (Hashtbl.mem by_key d.key) then Hashtbl.add by_key d.key d in
  let add_uid d = if not (Hashtbl.mem by_uid d.uid) then Hashtbl.add by_uid d.uid d in
  let add_local d =
    if not (Hashtbl.mem by_uid d.uid) then begin
      Hashtbl.add by_uid d.uid d;
      locals := d :: !locals
    end
  in
  let do_unit (u : Cmt_load.unit_info) =
    let unit_name = u.modname and source = u.source in
    let rec do_structure prefix str =
      List.iter
        (fun item ->
          match item.str_desc with
          | Tstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match pat_var vb.vb_pat with
                  | Some id ->
                      let d = make_def ~unit_name ~source ~prefix ~toplevel:true id vb in
                      defs := d :: !defs;
                      add_key d;
                      add_uid d;
                      collect_local_lets ~unit_name ~source ~prefix:(prefix @ [ d.name ])
                        vb.vb_expr add_local
                  | None -> ())
                vbs
          | Tstr_module mb -> do_module prefix mb
          | Tstr_recmodule mbs -> List.iter (do_module prefix) mbs
          | _ -> ())
        str.str_items
    and do_module prefix mb =
      let prefix =
        match mb.mb_name.txt with
        | Some n -> prefix @ split_dunder n
        | None -> prefix
      in
      do_modexpr prefix mb.mb_expr
    and do_modexpr prefix me =
      match me.mod_desc with
      | Tmod_structure s -> do_structure prefix s
      | Tmod_constraint (me, _, _, _) -> do_modexpr prefix me
      | Tmod_functor (_, me) -> do_modexpr prefix me
      | _ -> ()
    in
    do_structure (split_dunder u.modname) u.str
  in
  List.iter do_unit units;
  { defs = List.rev !defs @ List.rev !locals; by_key; by_uid }

(* Resolve a referenced path to a definition in the zone: a local ident
   by its per-unit stamp, otherwise by normalized key — exact first,
   then unique dot-boundary suffix match in either direction (a path
   seen from outside carries the library prefix; one seen from inside
   does not). *)
let resolve t ~unit_name path =
  match path with
  | Path.Pident id -> Hashtbl.find_opt t.by_uid (uid_of ~unit_name id)
  | _ -> (
      let segs = normalize_path path in
      match Hashtbl.find_opt t.by_key (key_of_segments segs) with
      | Some d -> Some d
      | None -> (
          let candidates =
            List.filter
              (fun d ->
                d.toplevel
                &&
                let dsegs = segments_of_string d.key in
                suffix_matches ~suffix:segs dsegs || suffix_matches ~suffix:dsegs segs)
              t.defs
          in
          match candidates with [ d ] -> Some d | _ -> None))

(* ------------------------------------------------------------------ *)
(* Expression utilities.                                               *)
(* ------------------------------------------------------------------ *)

(* Occurrences of idents free in [e]: every [Texp_ident (Pident id)]
   whose binder is not inside [e]. Stamps are unique within a unit, so
   set subtraction is exact. *)
let free_ident_occurrences e =
  let bound = Hashtbl.create 16 in
  let occs = ref [] in
  let pat (type k) it (p : k general_pattern) =
    List.iter
      (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
      (pat_bound_idents p);
    Tast_iterator.default_iterator.pat it p
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> occs := (id, e) :: !occs
    | Texp_for (id, _, _, _, _, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
    | Texp_letop { param; _ } -> Hashtbl.replace bound (Ident.unique_name param) ()
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.expr it e;
  List.rev !occs
  |> List.filter (fun (id, _) -> not (Hashtbl.mem bound (Ident.unique_name id)))

type call = {
  callee : Path.t;
  args : (Asttypes.arg_label * expression option) list;
  call_loc : Location.t;
}

(* Every application in [e] whose head is an identifier, plus every
   bare identifier reference (for effect propagation through
   higher-order use like [List.iter f xs]). *)
let calls_in e =
  let calls = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
              calls := { callee = p; args; call_loc = e.exp_loc } :: !calls
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !calls

let ident_refs e =
  let refs = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> refs := (p, e.exp_loc) :: !refs
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !refs

let head_ident e =
  match e.exp_desc with Texp_ident (Path.Pident id, _, _) -> Some id | _ -> None
