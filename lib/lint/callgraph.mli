(** Shared typed-AST substrate for the lint passes: normalization
    across dune's [Lib__Module] mangling, the zone-wide definition
    table, free-variable / call extraction, the mutation and allocation
    classifiers {!Escape}, {!Effects} and {!Hotpath} agree on, and the
    effect classifier {!Sites} and {!Effects} share. *)

val normalize_path : Path.t -> string list
val segments_of_string : string -> string list
val key_of_segments : string list -> string

val suffix_matches : suffix:string list -> string list -> bool
(** Dot-boundary suffix: [["Pool"; "run_batch"]] matches
    [["Exec"; "Pool"; "run_batch"]]. *)

val type_head : Types.type_expr -> string list option
(** Normalized path of the outermost type constructor, if any. *)

val is_arrow : Types.type_expr -> bool

val mutable_type_name : string list -> string option
(** [ref] / [array] / [bytes] / [Hashtbl.t] / [Buffer.t] / [Queue.t] /
    [Stack.t] — type constructors whose values a parallel batch can
    race on. [Atomic.t] is deliberately exempt. *)

val mutating_fn : string list -> bool
(** Stdlib calls that write through an argument ([:=], [Array.set],
    [Hashtbl.replace], ...). Coarse: any argument position counts. *)

val reading_fn : string list -> bool
(** Stdlib calls that only read their arguments ([!], [Array.get], ...). *)

val allocating_fn : string list -> string option
(** Stdlib calls that allocate on every call ([ref], [Array.make],
    [Printf.sprintf], [(@)], ...), with a display name. *)

val strip_stdlib : string list -> string list

val effect_of : file:string -> Path.t -> (Rule.id * string) option
(** The effect a reference to [p] has, if any, with a display name:
    [Ambient_effects] for [Random.*], [Unix.*], [Sys.time] and [exit];
    [Io_in_library] for the stdout/stderr printers. [Random] is allowed
    in [sim/rng.ml]. Both the use-site rules ({!Sites}) and the
    transitive summaries ({!Effects}) classify with this. *)

type def = {
  key : string;  (** normalized dotted path, e.g. ["Sim.Wheel.insert"] *)
  unit_name : string;
  uid : string;  (** unit-qualified ident stamp *)
  name : string;
  params : Ident.t list;  (** peeled [fun]-chain parameters *)
  body : Typedtree.expression;  (** after peeling *)
  full : Typedtree.expression;  (** the original bound expression *)
  attrs : Typedtree.attributes;
  loc : Location.t;
  source : string;
  toplevel : bool;  (** structure-level; [false] for local [let]s *)
}

type t = {
  defs : def list;  (** toplevel defs then local lets, traversal order *)
  by_key : (string, def) Hashtbl.t;  (** toplevel only *)
  by_uid : (string, def) Hashtbl.t;  (** toplevel + local lets *)
}

val peel_params : Typedtree.expression -> Ident.t list * Typedtree.expression
(** [fun x -> fun y -> body] ==> [([x; y], body)]; stops at a
    multi-case [function]. *)

val build : Cmt_load.unit_info list -> t
(** Collect every named binding at structure level (descending through
    nested modules, [module ... = struct], constraints and functor
    bodies) plus function-valued local lets (by uid only). *)

val resolve : t -> unit_name:string -> Path.t -> def option
(** Resolve a referenced path: local idents by per-unit stamp, global
    paths by exact normalized key, else unique dot-boundary suffix
    match in either direction. *)

val free_ident_occurrences :
  Typedtree.expression -> (Ident.t * Typedtree.expression) list
(** [Texp_ident (Pident id)] occurrences whose binder is outside the
    expression — the capture environment of a closure. Exact within a
    unit (stamps are unique per unit). *)

type call = {
  callee : Path.t;
  args : (Asttypes.arg_label * Typedtree.expression option) list;
  call_loc : Location.t;
}

val calls_in : Typedtree.expression -> call list
(** Applications whose head is an identifier, outermost-first. *)

val ident_refs : Typedtree.expression -> (Path.t * Location.t) list
(** Every identifier reference, for effect propagation through
    higher-order use. *)

val head_ident : Typedtree.expression -> Ident.t option
