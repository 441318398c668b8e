(* The deterministic zone: every library that runs inside a simulation,
   batch or model-checking pass, and must therefore be a pure function of
   (scenario, seed). lib/stats is included because its tables/figures are
   the ordered output the other rules protect. lib/lint itself is
   host-side tooling and stays out.

   Directory granularity means new modules are covered automatically:
   the timing-wheel queue (lib/sim/wheel.ml) and the scale-free
   generator (lib/graph/topology.ml) fall under lib/sim and lib/graph —
   both must stay free of wall-clock, global RNG and unordered
   iteration, since either can silently break trace
   determinism. bench/ stays out on purpose: it measures wall-clock. *)
let default_dirs =
  [
    "lib/obs";
    "lib/sim";
    "lib/core";
    "lib/net";
    "lib/detector";
    "lib/graph";
    "lib/harness";
    "lib/monitor";
    "lib/stabilize";
    "lib/baselines";
    "lib/mcheck";
    "lib/exec";
    "lib/stats";
    "lib/fuzz";
  ]
