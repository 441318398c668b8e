(** Failure-detector interface.

    A detector is a distributed oracle: each process [i] can query the set
    of neighbors it currently suspects of having crashed. The dining
    algorithm is written against this interface only, so the same code runs
    with the paper's assumed eventually-perfect detector ◇P₁
    ({!module:Oracle}, {!module:Heartbeat}), a perpetually perfect one
    ({!module:Perfect}), or none at all ({!module:Never} — which recovers
    the crash-intolerant Choy–Singh baseline). *)

type t = {
  name : string;
  suspects : int -> bool;
      (** [suspects s]: does the observer's local module currently
          suspect the target, where [s] is the directed slot (observer,
          target) in the observer's CSR row ({!Cgraph.Graph.dir_index})?
          ◇P₁ is locally scope-restricted, so only neighbor pairs have a
          slot; every detector keeps its state per slot, and the guards
          that ask already iterate the observer's row, so a query is an
          array read. *)
  subscribe : (int -> unit) -> unit;
      (** Register a callback fired with an observer's pid whenever that
          observer's suspicion output changes. This is how "suspicion can
          substitute for a missing message" wakes up blocked guards without
          polling. *)
}

type listeners
(** Helper for implementations: their subscribers, in registration order. *)

val listeners : unit -> listeners
val subscribe : listeners -> (int -> unit) -> unit

val notify : listeners -> int -> unit
(** Invoke every subscriber for an observer, in registration order,
    allocating nothing. *)
