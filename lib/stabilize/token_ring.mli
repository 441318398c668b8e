(** Dijkstra's K-state self-stabilizing token ring (1974).

    For a ring conflict graph on [n] processes, state is a counter in
    [\[0, k)] with [k >= n]. The root (pid 0) is enabled when its counter
    equals its predecessor's (pid [n-1]) and then increments modulo [k];
    every other process is enabled when its counter differs from its
    predecessor's and then copies it. A process is said to hold the token
    when it is enabled; from any configuration the ring converges to
    exactly one token circulating forever. Crash-{e in}tolerant by nature
    (a crashed process breaks the ring), so it is used in the crash-free
    stabilization experiments, where it exercises the daemon's fairness:
    the token only moves if every process keeps getting scheduled. *)

val make : n:int -> unit -> Protocol.t
(** States range over [k = n + 1] values. Raises for [n < 3]. Error
    measure: (number of enabled processes) - 1. *)
