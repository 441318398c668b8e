(** The reproduction suite.

    The paper (an algorithms paper) states its results as theorems rather
    than measured tables; every experiment here operationalises one claim
    (see DESIGN.md for the mapping) and regenerates a table or an ASCII
    figure. Experiments are deterministic: same build, same output —
    including the domain count, which only changes wall-clock time. *)

type artifact =
  | Table of Stats.Table.t
  | Series of Stats.Series.t
  | Note of string

type ctx = {
  domains : int;  (** parallelism for multi-run sweeps and batches *)
  seeds : int;    (** seeds per batch row (E10) *)
}

type t = {
  id : string;       (** "e1" .. "e12", "f1" .. "f6" *)
  title : string;
  claim : string;    (** the paper claim being reproduced *)
  run : ctx -> artifact list;
}

val all : t list
(** In presentation order: E1..E12 then F1..F6. *)

val find : string -> t option
(** Lookup by case-insensitive id. *)

val print_artifact : Format.formatter -> artifact -> unit
(** Print one artifact to the formatter and flush it. *)
