(** An exact multiset of non-negative ints: value -> multiplicity.

    The streaming monitors keep their latency samples here instead of in
    a list, so memory tracks the number of {e distinct} values rather
    than the number of samples, while every summary stays exact
    ({!Summary.of_counts}). Small values live in a dense count array
    grown by doubling; values from 1024 up live in a table. Nothing is
    allocated until the first {!add}, and {!add} allocates only when the
    dense array grows or a large value is seen for the first time. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Add one copy of a value.
    @raise Invalid_argument if the value is negative. *)

val to_counts : t -> (int * int) list
(** [(value, multiplicity)] for every value present, ascending. *)

val to_list : t -> int list
(** Every copy, ascending. *)

val summary : t -> Summary.t
(** [Summary.of_counts (to_counts t)]: equal to [Summary.of_ints] of
    {!to_list}. *)
