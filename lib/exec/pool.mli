(** Fixed pool of OCaml 5 domains for embarrassingly parallel batches.

    A pool of size [d] spawns [d - 1] worker domains; the submitting
    domain participates in draining each batch, so [d] is the total
    parallelism. Work is distributed by an atomic fetch-and-add over the
    task index space (work-sharing: idle domains steal the next unclaimed
    index), but results are always delivered in task-index order, so a
    parallel map is observably identical to a sequential one whenever the
    tasks are independent — which is exactly what {!Harness.Batch} needs
    to keep multi-seed aggregates bit-identical across [?domains].

    A pool of size 1 spawns no domains and runs every batch inline — the
    deterministic sequential fallback used when
    [Domain.recommended_domain_count () = 1].

    Batches must be submitted from one domain at a time (the harness
    submits from the main domain); nesting a batch inside one of the
    same pool's tasks, or submitting concurrently from two domains, is
    detected and rejected with [Invalid_argument] — two live batches on
    one pool would race on the work queue and hang the first submitter.
    Nesting across {e distinct} pools (a world's sharded engine firing
    inside a {!Harness.Batch} task) is fine. *)

type t

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] workers (default
    {!default_domains}; values < 1 are clamped to 1). Every pool must be
    {!shutdown} (or created via {!with_pool}) or its domains leak. *)

val size : t -> int
(** Total parallelism, including the submitting domain. *)

val shutdown : t -> unit
(** Terminate and join the worker domains. Idempotent. The pool must be
    idle (no batch in flight). *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] = create, run [f], always shutdown. *)

val run_batch : t -> int -> (int -> unit) -> unit
(** [run_batch pool n body] runs [body 0 .. body (n - 1)] across the pool
    for effect and returns once all [n] indices have finished. A raising
    body does not wedge the batch: every index still runs, and after the
    batch drains the exception of the lowest-index failing task is
    re-raised (matching {!init}). This is also the barrier primitive of
    sharded stepping: one task per shard, and the call returning means
    every shard's effects are visible to the submitting domain.
    @raise Invalid_argument if the pool is already running a batch
    (nested or concurrent submission). *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init pool n f] evaluates [f 0 .. f (n - 1)] across the pool and
    returns the results indexed as [Array.init n f] would. If any task
    raises, the exception of the lowest-index failing task is re-raised
    after the batch drains. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel [Array.map]. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map]. *)
