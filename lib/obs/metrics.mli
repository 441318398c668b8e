(** Name-keyed metrics registry: counters, gauges and histograms.

    One registry per simulated world (allocated in [Harness.World]),
    replacing ad-hoc counters scattered through components: the network
    layer registers its traffic counters, monitors register wait-time
    histograms, and the harness publishes engine gauges at report time.
    Handles are plain mutable cells, and {!incr} takes the counter
    alone, so a counter bump on a hot path is one direct one-argument
    call that does one integer store (no optional-argument wrapper, no
    generic application); all ordering happens at {!dump} time,
    where names are sorted so output never surfaces hash order. A
    histogram is an exact multiset of the values observed, so its
    owner can read every sample back. *)

type t

type counter
type gauge
type histogram = Stats.Multiset.t

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create. Raises [Invalid_argument] if the name is already
    registered as a different metric kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : counter -> unit
(** Add one. *)

val add : counter -> int -> unit
(** [add c n] adds [n]. *)

val counter_value : counter -> int
val set : gauge -> int -> unit
val gauge_value : gauge -> int
val observe : histogram -> int -> unit
(** Add one sample. @raise Invalid_argument if it is negative. *)

type value =
  | Count of int
  | Level of int
  | Dist of { count : int; sum : int; min : int; max : int }
      (** Derived from the multiset when read; an empty histogram reads
          [count = 0], [sum = 0], [min = max_int], [max = min_int]. *)

val find : t -> string -> value option
val dump : t -> (string * value) list
(** All metrics, sorted by name. *)

val pp : Format.formatter -> t -> unit
(** One [name value] line per metric, sorted by name. *)
