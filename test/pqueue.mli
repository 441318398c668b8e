(** Mutable binary min-heap: the reference oracle the timing-wheel
    differential tests ({!Sim.Wheel}) compare pop streams against.

    Entries are ordered by priority (virtual time) and, among equal
    priorities, by insertion order, giving the engine a deterministic
    event order. *)

type 'a t

val create : unit -> 'a t
(** [create ()] makes an empty queue. *)

val add : 'a t -> prio:int -> 'a -> unit
(** Insert an element with the given priority. O(log n).
    @raise Invalid_argument if [prio] is negative or equal to [max_int]
    ([Time.infinity], the "never" sentinel — such an event would never
    fire). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum entry, FIFO among equal priorities.
    O(log n). *)

val peek_prio : 'a t -> int option
(** Priority of the minimum entry without removing it. *)

val size : 'a t -> int
(** Entries currently in the heap. *)

val is_empty : 'a t -> bool

val clear : 'a t -> unit
