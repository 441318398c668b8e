(** The rule set of the determinism & domain-safety pass. *)

type id =
  | Nondet_iteration   (** Hashtbl.iter/fold escaping into ordered output *)
  | Ambient_effects    (** Random.* / Unix.* / Sys.time / exit in the zone *)
  | Io_in_library      (** printf / print_* outside bin/, bench/ and designated printers *)
  | Physical_equality  (** == / != on non-int operands *)
  | Mutable_global     (** toplevel mutable state shared across domains *)
  | Exception_swallow  (** [with _ ->] handlers *)
  | Domain_escape      (** mutable capture racing across an Exec.Pool batch *)
  | Hot_path_alloc     (** allocation inside a [[@lint.hot]] function *)
  | Hot_path_optional  (** call leaving out an optional argument inside a [[@lint.hot]] function *)
  | Unused_allow       (** [[@lint.allow]] attribute that suppressed nothing *)

val all : id list

val meta : id list
(** The hygiene rule [bin/lint.exe] emits over the suppression ledger. *)

val name : id -> string
val of_name : string -> id option

val explanation : id -> string
(** One-paragraph rationale, shown by [lint --list-rules]. *)
