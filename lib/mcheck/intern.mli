(** Interning of canonical state keys to dense integer ids.

    Ids are assigned in first-seen order (0, 1, 2, ...), so an
    exploration that probes states in a deterministic order gets a
    deterministic id assignment — the substrate for parent-pointer
    counterexample reconstruction and for array-indexed passes. *)

type t

val create : unit -> t

val add : t -> string -> [ `New of int | `Seen of int ]
(** Intern a key: [`New id] on first sight (ids are dense, in call
    order), [`Seen id] afterwards. *)

val mem : t -> string -> bool
val find_opt : t -> string -> int option

val count : t -> int
(** Number of distinct keys interned so far. *)
