(** Shared vocabulary of the dining layer. *)

type pid = int

type phase = Thinking | Hungry | Eating
(** The three abstract diner states: executing independently, requesting
    shared resources, and inside the critical section. *)

type message =
  | Ping            (** doorway ack request (phase 1) *)
  | Ack             (** doorway permission *)
  | Request of int  (** fork request carrying the sender's color (phase 2) *)
  | Fork            (** the shared fork itself *)

val phase_to_string : phase -> string
val pp_phase : Format.formatter -> phase -> unit
val equal_phase : phase -> phase -> bool

val message_kind : message -> string
(** Stable label used for per-kind channel statistics:
    ["ping"], ["ack"], ["request"], ["fork"]. *)

val message_kind_index : message -> int
(** Dense allocation-free kind index (ping 0, ack 1, request 2, fork 3),
    used to index flat per-kind counter arrays on the hot path. *)

val message_kind_name : int -> string
(** Inverse of {!message_kind_index} for snapshots and reports. *)

val message_bits : n:int -> message -> int
(** Size of a message's payload in bits for an n-process system, per the
    paper's O(log2 n) bound: sender ids and colors need [log2 n] bits. *)

exception Invariant_violation of string
(** Raised by executable-lemma checks when a proven invariant of
    Algorithm 1 fails at runtime (which would indicate an implementation
    bug, never expected in a run). *)
