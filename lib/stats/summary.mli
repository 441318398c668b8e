(** Descriptive statistics over samples. *)

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val of_floats : float list -> t
val of_ints : int list -> t

val of_counts : (int * int) list -> t
(** [of_counts [(v, c); ...]] summarises the multiset holding [c] copies
    of each [v], equal to [of_ints] of that multiset expanded, bit for
    bit: the same float additions in the same ascending order, with
    percentile ranks read from cumulative counts instead of a sorted
    array. Pairs may come in any order and repeat a value.
    @raise Invalid_argument on a negative count. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0, 1\]], by linear interpolation
    between closest ranks. The array must be sorted ascending and
    non-empty. *)

