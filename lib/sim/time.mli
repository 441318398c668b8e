(** Virtual time for the discrete-event simulator.

    Time is a non-negative integer count of abstract "ticks". All protocol
    parameters (message delays, heartbeat periods, eat durations, ...) are
    expressed in ticks, so runs are exactly reproducible across machines. *)

type t = int

val zero : t

val infinity : t
(** A time later than any event the simulator will ever schedule. *)

val add : t -> t -> t
(** Saturating addition: [add t infinity = infinity]. *)

val max : t -> t -> t
val is_finite : t -> bool

val pp : Format.formatter -> t -> unit
(** Prints finite times as the raw tick count and {!infinity} as ["inf"]. *)

val to_string : t -> string
