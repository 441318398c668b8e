(** Time series rendered as the repository's "figures".

    A series is a list of (x, y) points; rendering produces both the raw
    two-column data and a unicode-free ASCII chart so that figures are
    reproducible in a terminal and diffable in CI. *)

type t

val create : title:string -> x_label:string -> y_label:string -> t
val add_point : t -> x:float -> y:float -> unit
val add_series : t -> name:string -> (float * float) list -> unit
(** Add a named secondary series sharing the same axes (for
    ours-vs-baseline figures). Points added with {!add_point} belong to
    the primary series, named after [y_label]. *)

val render : t -> string
(** ASCII chart (72x16 plot area) followed by the data columns. *)

val pp : Format.formatter -> t -> unit
(** {!render} plus a trailing blank line, to the given formatter. Library
    code reports through this; only executables pick a concrete sink. *)

val to_csv : t -> string
(** The raw data as CSV with columns [series,x,y]. *)

val title : t -> string
