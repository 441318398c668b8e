(** Mutable binary min-heap: the reference oracle the timing-wheel
    differential tests ({!Sim.Wheel}) compare pop streams against.

    Entries are ordered by priority (virtual time) and, among equal
    priorities, by insertion order, giving the engine a deterministic
    event order.

    Cancelled entries stay in the heap as husks until popped. When a
    [dead] predicate is supplied at creation, the owner can report
    cancellations with {!note_dead}; once more than half of the queued
    entries are dead (and the heap is non-trivially sized) the heap is
    rebuilt without them, so long runs with many cancelled timeouts keep
    O(log live) operations. Compaction preserves the priority/insertion
    order of the surviving entries. *)

type 'a t

val create : ?dead:('a -> bool) -> unit -> 'a t
(** [create ~dead ()] makes an empty queue. [dead v] must answer whether
    entry [v] has been logically cancelled; it is consulted during
    compaction and on {!pop} to maintain the dead-entry count. Without
    [dead], the queue never compacts. *)

val add : 'a t -> prio:int -> 'a -> unit
(** Insert an element with the given priority. O(log n).
    @raise Invalid_argument if [prio] is negative or equal to [max_int]
    ([Time.infinity], the "never" sentinel — such an event would never
    fire). *)

val note_dead : 'a t -> unit
(** Tell the queue one of its entries just became dead. May trigger a
    compaction that drops every entry for which the [dead] predicate
    holds. Call at most once per logically cancelled entry. *)

val compact : 'a t -> unit
(** Force a rebuild dropping dead entries now. No-op without a [dead]
    predicate. O(n log n). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum entry, FIFO among equal priorities.
    O(log n). Dead entries are returned like any other (the caller skips
    them); popping one decrements the dead-entry count. *)

val peek_prio : 'a t -> int option
(** Priority of the minimum entry without removing it. *)

val size : 'a t -> int
(** Entries currently in the heap, including dead husks not yet
    reclaimed by compaction. *)

val is_empty : 'a t -> bool

val clear : 'a t -> unit
