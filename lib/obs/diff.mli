(** Trace diffing: find the first divergent event between two runs.

    Works on exported JSONL lines (see {!Jsonl}), so "identical" means
    byte-identical — the property the harness promises for equal
    (scenario, seed) at any domain count. When two traces differ
    (different seeds, code versions, or a determinism bug), the tool
    pinpoints the first divergent event and shows the tail of the common
    prefix for orientation. *)

type divergence = {
  index : int;  (** 0-based position of the first differing event. *)
  a : string option;  (** Line in trace A, or [None] if A ended first. *)
  b : string option;
  context : string list;
      (** Tail of the (shared) prefix before the divergence, oldest
          first. *)
}

val lines : string -> string list
(** Split an exported trace into event lines, dropping blank lines and
    ["#"-prefixed] header lines, so run metadata (seed, date) never
    counts as a divergence. *)

val first_divergence : ?context:int -> string list -> string list -> divergence option
(** [None] when both traces are identical; otherwise the first divergent
    position with up to [context] (default 3) preceding events. A
    strict-prefix relationship diverges at the shorter trace's end. *)

val identical : string list -> string list -> bool

val pp : Format.formatter -> divergence -> unit
