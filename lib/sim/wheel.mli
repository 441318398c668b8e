(** Hierarchical timing wheel used as the simulator's event queue at
    scale.

    The wheel queues {e handles}: small non-negative ints, which the
    engine takes from its event pool's slot indices. Eight levels of
    256 slots cover the full non-negative tick range; a handle is filed
    at the level of the highest byte in which its tick differs from the
    wheel's floor (the last popped tick). Add and pop are amortised
    O(1): popping takes the head of the current tick's list, and
    reaching a new tick moves one level-0 slot's list in as that list,
    occasionally cascading a higher-level slot down one level.

    Every slot at every level is a FIFO list threaded through per-handle
    links (a tick and a successor per handle, Varghese and Lauck's
    intrusive timer lists), so queueing, cascading and popping move ints
    and allocate nothing. Storage grows only with its high-water marks:
    the links come in 128-handle chunks allocated the first time a
    handle in their range is added, and a level's slot heads and tails
    are allocated the first time an entry is filed at that level, so a
    short or small run never pays for the upper levels.

    Pop order among equal ticks is FIFO; the tests hold the wheel to a
    reference binary heap on it. Entries are never withdrawn: every
    added handle is popped, and {!size} counts exactly the handles still
    queued. Priorities must be non-negative and never below the last
    popped one — precisely the discipline a virtual-time engine already
    follows; violations raise [Invalid_argument]. *)

type t

val create : unit -> t
(** An empty wheel. It holds no slot or link storage until the first
    {!add}. *)

val add : t -> prio:int -> int -> unit
(** [add t ~prio h] queues handle [h] at tick [prio]. Amortised O(1),
    and allocation-free once [h]'s link chunk and the slot level it
    lands on exist. A handle is queued at most once at a time: it may
    be added again as soon as {!pop_until} has returned it, not before.
    Every finite tick up to [max_int - 1] is representable.
    @raise Invalid_argument if [h] is negative or already queued, or if
    [prio] is negative, below the last popped tick, or equal to
    [max_int] ([Time.infinity], the "never" sentinel — such an event
    would never fire). *)

val pop_until : t -> int -> int
(** [pop_until t until] removes and returns the handle with the minimum
    tick, FIFO among equal ticks, if that tick is at most [until]; its
    tick is {!floor} afterwards. Returns [-1] when the wheel is empty or
    its minimum tick is above [until], and then changes nothing a caller
    can see: the floor stays put, so an {!add} anywhere from the floor
    on is still accepted. Amortised O(1): reaching a new tick costs one
    scan of the occupancy bitmaps, and moves a level-0 list's head and
    tail or relinks a cascaded slot's handles; it never allocates. *)

val next_tick : t -> int
(** Tick of the minimum entry without removing it, or [max_int] when
    the wheel is empty ([max_int] is never a queued tick, see {!add}).
    Does not advance the wheel, and allocates nothing. *)

val trim : t -> handles:int -> unit
(** [trim t ~handles] drops the link chunks that hold only handles at or
    above [handles]. No handle that high may be queued. Cheap when
    nothing is dropped, so a caller may call it after each run. *)

val size : t -> int
(** Handles currently queued. *)

val is_empty : t -> bool

val ctz32 : int -> int
(** Index of the lowest set bit of a non-zero word below [2^32]: the
    bitmap scan's step. Exposed for tests. *)

val floor : t -> int
(** The last popped tick — no queued entry is below it. Exposed for
    tests and diagnostics. *)
