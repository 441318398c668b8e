type id =
  | Nondet_iteration
  | Ambient_effects
  | Io_in_library
  | Physical_equality
  | Mutable_global
  | Exception_swallow
  | Domain_escape
  | Hot_path_alloc
  | Hot_path_optional
  | Stale_allowlist
  | Unused_allow

(* Hygiene meta-rules: emitted by the driver over the suppression
   ledger, not by any walker. *)
let meta = [ Stale_allowlist; Unused_allow ]

let all =
  [
    Nondet_iteration;
    Ambient_effects;
    Io_in_library;
    Physical_equality;
    Mutable_global;
    Exception_swallow;
    Domain_escape;
    Hot_path_alloc;
    Hot_path_optional;
  ]
  @ meta

let name = function
  | Nondet_iteration -> "nondet-iteration"
  | Ambient_effects -> "ambient-effects"
  | Io_in_library -> "io-in-library"
  | Physical_equality -> "physical-equality"
  | Mutable_global -> "mutable-global"
  | Exception_swallow -> "exception-swallow"
  | Domain_escape -> "domain-escape"
  | Hot_path_alloc -> "hot-path-alloc"
  | Hot_path_optional -> "hot-path-optional"
  | Stale_allowlist -> "stale-allowlist"
  | Unused_allow -> "unused-allow"

let of_name s = List.find_opt (fun r -> name r = s) all

let explanation = function
  | Nondet_iteration ->
      "Hashtbl.iter/fold enumerate bindings in unspecified hash order; a result that \
       escapes into ordered output breaks byte-identical replay. Sort the result (the \
       linter recognises `|> List.sort`) or annotate an order-insensitive reduction with \
       [@lint.allow \"nondet-iteration\"]."
  | Ambient_effects ->
      "Random.*, Unix.*, Sys.time and exit read or mutate ambient process state; runs \
       stop being a pure function of (scenario, seed). Thread Sim.Rng and engine time \
       through explicitly. Also fires on functions that reach such a call through \
       helpers (transitive effect inference over the call graph)."
  | Io_in_library ->
      "printf/print_* from library code writes to the process-global stdout, which \
       interleaves nondeterministically across domains. Take a Format.formatter \
       parameter and let bin/ or bench/ choose the sink. Also fires transitively on \
       callers of printing helpers."
  | Physical_equality ->
      "== / != compare addresses, not values; on boxed data the answer depends on \
       allocation history, which parallel runs do not replay. Use = / <> or compare."
  | Mutable_global ->
      "A toplevel ref/Hashtbl/Buffer/... is shared by every run and every domain; \
       concurrent batches race on it and sequential batches leak state between runs. \
       Allocate per World/run instead. Also fires on functions that mutate toplevel \
       state through helpers."
  | Exception_swallow ->
      "`with _ ->` also swallows Stack_overflow, Out_of_memory and assertion failures, \
       turning hard bugs into silent divergence. Match the specific exceptions you mean \
       to handle."
  | Domain_escape ->
      "A task body submitted to Exec.Pool (run_batch/init/map_array/map_list, directly \
       or through intermediate functions) captures mutable state — a ref, array, bytes, \
       Hashtbl/Buffer/Queue/Stack, or a record it mutates — that every domain in the \
       batch then races on. Allowed captures: values only read by the tasks (the \
       submitter blocks for the batch, so nobody writes concurrently) and arrays \
       accessed only at the task's own index parameter (disjoint shards)."
  | Hot_path_alloc ->
      "Functions annotated [@lint.hot] are the measured allocation-free hot paths \
       (Net.Link_stats.record_send, Sim.Wheel insert/cascade, the Sim.Engine fire loop, \
       Cgraph.Graph.dir_index_opt). Closures, tuples, records, array/constructor \
       allocations and known allocator calls in their bodies are flagged — the static \
       guard behind the BENCH_scale.json allocation gate. Justify a deliberate \
       allocation with [@lint.allow \"hot-path-alloc\"] and a comment."
  | Hot_path_optional ->
      "A call in a [@lint.hot] body that leaves out an optional argument runs the \
       callee's default-filling wrapper on every event, and across modules compiled \
       -opaque (dune's dev profile) it is a generic caml_applyN call as well. Give the \
       hot path a function without the optional argument (Obs.Metrics.incr / add), or \
       justify the call with [@lint.allow \"hot-path-optional\"]."
  | Stale_allowlist ->
      "A lint.allow entry suppressed nothing this run: the code it excused is gone. \
       Remove the entry — keeping it lets future violations in that file hide under it."
  | Unused_allow ->
      "A [@lint.allow] attribute suppressed nothing this run (all its rules were \
       checked). Remove it — keeping it lets future violations at that site hide under \
       it."
