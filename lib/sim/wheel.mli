(** Hierarchical timing wheel used as the simulator's event queue at
    scale.

    Eight levels of 256 slots cover the full non-negative tick range;
    an entry is filed at the level of the highest byte in which its
    tick differs from the wheel's floor (the last popped tick).
    Add and pop are amortised O(1): popping drains one level-0 slot at
    a time into a FIFO buffer, occasionally cascading a higher-level
    slot down one level. A level-0 slot holds a single tick's values in
    a FIFO array, so draining it is a swap: no sort, no allocation.

    Pop order among equal ticks is FIFO; the tests hold the wheel to a
    reference binary heap on it. Entries are never withdrawn: every
    added entry is popped, and {!size} counts exactly the entries still
    queued. Priorities must be non-negative and never below the last
    popped one — precisely the discipline a virtual-time engine already
    follows; violations raise [Invalid_argument]. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty wheel. [dummy] fills every array
    cell the wheel vacates (by {!pop} or a cascade), so the wheel never
    retains a value it no longer holds; it is never returned by {!pop}. Pass a long-lived value: a young one costs a
    forced minor collection the first time a slot array outgrows the
    minor heap. *)

val add : 'a t -> prio:int -> 'a -> unit
(** Insert an element with the given priority (tick). Amortised O(1).
    Every finite tick up to [max_int - 1] is representable.
    @raise Invalid_argument if [prio] is negative, below the last
    popped tick, or equal to [max_int] ([Time.infinity], the "never"
    sentinel — such an event would never fire). *)

val pop : 'a t -> 'a
(** Remove and return the minimum entry, FIFO among equal priorities;
    its priority is {!floor} afterwards. Amortised O(1). Reaching a
    new tick swaps that tick's slot array in as the FIFO buffer, which
    allocates nothing; a cascade relinks existing cells, and allocates
    only when it outgrows a level-0 array (doubling, as {!add} does).
    @raise Invalid_argument if the wheel is empty. *)

val next_tick : 'a t -> int
(** Priority of the minimum entry without removing it, or [max_int]
    when the wheel is empty ([max_int] is never a queued priority, see
    {!add}). Does not advance the wheel, and allocates nothing. *)

val size : 'a t -> int
(** Entries currently queued. *)

val is_empty : 'a t -> bool

val floor : 'a t -> int
(** The last popped tick — no queued entry is below it. Exposed for
    tests and diagnostics. *)
