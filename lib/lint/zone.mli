(** The deterministic zone — the library directories whose [.cmt]
    artifacts the pass scans by default. *)

val default_dirs : string list
(** [lib/obs], [lib/sim], [lib/core], [lib/net], [lib/detector],
    [lib/graph], [lib/harness], [lib/monitor], [lib/stabilize],
    [lib/baselines], [lib/mcheck], [lib/exec], [lib/stats] and
    [lib/fuzz] — everything a simulation, batch or model-checking pass
    executes, relative to the repository root. *)
