(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic component of a scenario (network delays, workload,
    crash times, ...) draws from its own split of a single root seed, so a
    scenario is fully determined by one [int64] and is insensitive to the
    order in which components happen to consume randomness. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] returns a new generator whose stream is statistically
    independent of [t]'s subsequent output. Both generators remain
    usable. *)

val split_named : t -> string -> t
(** [split_named t label] derives a generator from [t]'s seed and [label]
    without consuming randomness from [t]: same [t] and [label] always give
    the same stream. Use this to hand sub-streams to components. *)

val skip : t -> int -> unit
(** [skip t k] moves [t] [k] draws ahead ([-k] back, for negative [k])
    in O(1): afterwards [t] yields what it would have yielded after [k]
    more draws. {!bits64}, {!int}, {!int_in}, {!bits53}, {!float},
    {!bool}, {!exponential} and {!pick} each make exactly one draw, so a
    stream of fixed-size records can be read back in any order. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). Requires
    [lo <= hi]. *)

val bits53 : t -> int
(** The top 53 bits of the next output: uniform in [\[0, 2{^53})]. An
    unboxed draw: [bits53 t < k] has the probability [k / 2{^53}]. *)

val float : t -> float
(** Uniform in [\[0, 1)]: [bits53] divided by [2{^53}], which is exact. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
