(** Aligned plain-text tables (and CSV) for experiment reports. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t
(** Column headers with per-column alignment. *)

val add_row : t -> string list -> unit
(** Row cells must match the column count. *)

val add_rule : t -> unit
(** Insert a horizontal separator before the next row. *)

val render : t -> string
(** The table as aligned text with a title line and header rule. *)

val to_csv : t -> string
(** Same data as RFC-4180-ish CSV (quotes doubled, cells with commas or
    quotes quoted). Separator rows are omitted. *)

val pp : Format.formatter -> t -> unit
(** [render] plus a trailing blank line, to the given formatter. Library
    code reports through this; only executables pick a concrete sink. *)

(* Convenience cell formatters. *)
val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_bool : bool -> string
val cell_time : int -> string
