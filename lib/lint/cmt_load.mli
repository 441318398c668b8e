(** Typed-AST loading for every lint pass: [.cmt] artifacts from
    [_build] (zone scans) or in-process typechecking of source (explicit
    files and fixtures). *)

type unit_info = {
  modname : string;  (** compilation-unit name, e.g. ["Sim__Wheel"] *)
  source : string;  (** source path, used for findings *)
  str : Typedtree.structure;
}

type result = {
  units : unit_info list;  (** sorted by [modname] *)
  errors : (string * string) list;  (** (path, unreadable / ill-typed reason) *)
}

val load_dirs : string list -> result
(** Scan each directory's [.*.objs/byte] subdirectories for [.cmt]
    implementation artifacts, e.g. [load_dirs ["lib/sim"; "lib/net"]]
    from the [_build/default] working directory that `dune build @lint`
    provides. A directory without artifacts is looked up under
    [_build/default] too, so a scan also works from the repository root
    after a build. Interface-only cmts and dune's generated module-alias
    shims ([.ml-gen]) are skipped. *)

val typecheck_source : file:string -> string -> (unit_info, string) Stdlib.result
(** Parse and typecheck [source] against the current switch's stdlib
    (no dune, no build dir). For fixtures: keep them self-contained —
    references to repo libraries will not resolve. *)

val load_files : string list -> result
(** {!typecheck_source} each file, in order; a file that cannot be read
    or typechecked is an entry in [errors], never an exception. *)
