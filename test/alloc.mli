(** Allocation counting for the "allocates nothing" tests. *)

val words : (unit -> unit) -> float
(** [words f] runs [f] and returns the words it allocated on either
    heap: minor words plus words allocated straight into the major heap
    (major minus promoted, since a promotion counts as a major
    allocation too). [Gc.minor_words] alone misses every block over
    256 words, which the runtime puts in the major heap directly. The
    counter reads' own allocation is measured once and subtracted, so
    an [f] that allocates nothing reads exactly 0. *)
