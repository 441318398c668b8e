(** Pure-functional explicit-state model of Algorithm 1.

    This is a second, independent encoding of the paper's pseudocode —
    immutable states, explicit per-channel FIFO queues, and one transition
    per guarded command — used to verify the algorithm's proven lemmas
    exhaustively on small instances (the simulator samples schedules; the
    model checker enumerates them).

    Sources of nondeterminism, each budgeted to keep the state space
    finite:
    - processes become hungry at most [sessions] times each;
    - at most [crash_budget] processes crash, at any point;
    - the ◇P₁ oracle makes at most [fp_budget] false-suspicion output
      changes (each set/clear of a live neighbor's suspicion consumes
      one); suspicion of a crashed neighbor can always be switched on
      (completeness) and never off again;
    - message delivery and every internal action interleave arbitrarily.

    With [fp_budget = 0] the detector is perpetually accurate, so the
    checker additionally asserts weak exclusion (no two live neighbors
    simultaneously eating — perpetual, per the paper's Theorem 1 argument
    specialised to a converged oracle). Structural lemmas (fork/token
    conservation, Lemma 1.1, Lemma 2.2, the 4-messages-per-edge bound) are
    asserted in {e every} mode.

    Every transition strictly lowers {!rank}, and {!successors_tagged}
    checks that it does, so the bounded model is acyclic and every
    schedule is finite. Then a complete exploration without a {!stuck}
    state proves Theorem 2 (every correct hungry process eventually
    eats) for every schedule that does not crash that process. *)

type config = {
  graph : Cgraph.Graph.t;
  colors : int array;
  sessions : int;       (** hungry sessions per process *)
  crash_budget : int;
  fp_budget : int;
}

type state
(** One immutable string in a fixed layout that {!initial} computes once
    per config: the two budgets; per process its phase, inside and
    crashed bits and its sessions left; per directed slot one flag byte
    (pinged, ack, replied, deferred, fork, token, suspicion); per
    directed channel its length and a 2-bit code per queued message;
    per channel and message kind the count absorbed by a crashed
    destination. Every state carries a pointer to that layout, which
    also holds each transition's precomputed action and label, so no
    function below consults a global table. Nothing writes a state
    once it is returned. *)

val initial : config -> state
(** Raises [Invalid_argument] when the colouring is not proper, when
    [sessions], [crash_budget] or [fp_budget] exceeds 65535 (the width
    of their fields), or when the config's {!rank} would overflow an
    int. *)

exception Model_violation of string
(** Raised when a delivery handler itself detects a violated lemma (a
    fork request arriving at a non-holder, a duplicated fork), when a
    fixed-width field would overflow (more than 6 messages queued on one
    directed channel or more than 255 of one kind absorbed from it), or
    when a transition does not lower the {!rank}
    (["rank: a6(0) does not lower the rank"]). A sound run queues at
    most 4 and absorbs at most 1, so neither overflow is reachable
    there, and no sound transition keeps or raises the rank. *)

val rank : state -> int
(** A ranking function: the lexicographic tuple (crash budget left, fp
    budget left, r, x) packed into one int, where r sums each process's
    sessions left and protocol stage, and x weighs each directed slot's
    pending protocol work (undetected crash, ping pipeline, unsent
    pings, unrequested forks, queued requests and forks). Allocates
    nothing. *)

val successors : config -> state -> (string * state) list
(** All one-step successor states with human-readable transition labels.
    May raise {!Model_violation}, also when a successor's {!rank} is not
    strictly lower than the state's; state-level invariants are found
    by {!check}. *)

type action =
  | Act_local of { pid : int; tag : string }
      (** Internal guarded command at [pid]: one of
          [hungry], [a2], [a5], [a6], [a9], [a10]. *)
  | Act_deliver of { src : int; dst : int }
      (** Head-of-queue delivery on the directed channel (src, dst). *)
  | Act_drop of { src : int; dst : int }
      (** Absorption of the head message: [dst] has crashed. *)
  | Act_crash of { pid : int }
  | Act_detect of { observer : int; target : int }
      (** Justified suspicion of a crashed neighbor switches on. *)
  | Act_fp of { observer : int; target : int }
      (** Budgeted false-suspicion output flip at a live neighbor. *)

val successors_tagged : config -> state -> (action * string * state) list
(** {!successors} with each transition's structural action attached.
    The label list is identical to {!successors}. *)

val proc_of : action -> int
(** The process "taking the step" — the acting process for internal
    actions, the destination for deliveries/drops, the observer for
    oracle output changes. Used for preemption accounting. *)

val independent : config -> action -> action -> bool
(** A sound (conservative, symmetric) independence relation: if
    [independent cfg a b] then in every state where both are enabled,
    executing them in either order reaches the same state, neither
    enables or disables the other, and no single per-edge invariant
    footprint is written by both. Concretely:
    - deliveries/drops on edges with disjoint endpoint sets commute;
    - otherwise the actions must touch disjoint process sets, two
      whole-process actions (internal steps, crashes) must additionally
      be non-adjacent, and two crashes (shared crash budget) or two
      false-positive flips (shared fp budget) are never independent. *)

val check : config -> state -> string option
(** First violated invariant of the state, if any. *)

val key : state -> string
(** The state's own bytes, returned without a copy: the visited-set key.
    Canonical and injective by construction, since the layout is fixed
    per config and every bit is either meaningful or zero: structurally
    equal states yield equal keys however they were built (unlike
    [Marshal], whose output depends on in-memory sharing), and distinct
    states never collide. Keys of states from different configs are not
    comparable. *)

val hungry_live_process : config -> state -> int option
(** Some live process currently hungry, if any. *)

val stuck : config -> state -> (action * string * state) list -> bool
(** [stuck cfg s (successors_tagged cfg s)]: some live process is hungry
    and no transition other than a crash is enabled — a deadlock. A
    crash is never due, so a schedule may end in a state whose only
    moves are crashes, and one with a live hungry process starves it;
    both explorers still expand such a state's successors. Allocates
    nothing. *)

val phase : state -> int -> [ `Thinking | `Hungry | `Eating ]
val inside : state -> int -> bool
val crashed : state -> int -> bool
(** Accessors for reachability predicates. *)

val describe : state -> string
(** Compact human-readable dump (for violation reports). *)
